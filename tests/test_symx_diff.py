"""The poly derivative against the expression-tree derivative it replaced.

``symx.diff`` differentiates a normal-form poly directly. It promises the
floats, in the order, that the old route gave: build ``expr_of_poly(p)``,
differentiate the tree, and take ``poly_of`` of the result. The old tree
derivative is kept here as the reference, and every comparison is bit for
bit: dict equality, key order and the bits of each coefficient.
"""

import math
import random

import pytest

from fracdecomp import fracterm, symx
from fracdecomp.decomp import adomian_polys, ladm_solve, mldm_solve
from fracdecomp.fracterm import Series, series_add, series_scale, spatial_apply
from fracdecomp.problems import ProblemError, builtin
from fracdecomp.symx import (
    ONE,
    ZERO,
    Const,
    Cos,
    Exp,
    ExprError,
    Pow,
    Prod,
    Sin,
    Sum,
    Var,
    diff,
    expr_of_poly,
    poly_of,
)

X = Var("x")
Y = Var("y")


# ---------------------------------------------------------------------------
# reference: the expression-tree derivative as it stood before
# ---------------------------------------------------------------------------


def _tree_diff(e, name):
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_tree_diff(a, name) for a in e.args))
    if isinstance(e, Prod):
        parts = []
        for i, a in enumerate(e.args):
            da = _tree_diff(a, name)
            parts.append(Prod(e.args[:i] + (da,) + e.args[i + 1:]))
        return Sum(tuple(parts))
    if isinstance(e, Pow):
        if e.exponent == 0.0:
            return ZERO
        return Prod((Const(e.exponent), Pow(e.base, e.exponent - 1.0),
                     _tree_diff(e.base, name)))
    if isinstance(e, Sin):
        return Prod((Cos(e.arg), _tree_diff(e.arg, name)))
    if isinstance(e, Cos):
        return Prod((Const(-1.0), Sin(e.arg), _tree_diff(e.arg, name)))
    if isinstance(e, Exp):
        return Prod((e, _tree_diff(e.arg, name)))
    raise TypeError(type(e).__name__)


def _reference(p, name):
    return dict(poly_of(_tree_diff(expr_of_poly(p), name)))


def _assert_same(got, want):
    assert got == want
    assert list(got) == list(want)          # insertion order too
    for mono, c in got.items():
        assert type(c) is float and c.hex() == want[mono].hex()


def _assert_matches_reference(p, orders=2):
    for var in ("x", "y"):
        got, want = p, p
        for _ in range(orders):
            got, want = diff(got, var), _reference(want, var)
            _assert_same(got, want)


# ---------------------------------------------------------------------------
# every term the solvers produce
# ---------------------------------------------------------------------------


def _record_polys(pid):
    # the paper-literal p7 diverges fast at alpha < 1, so that mode stops at n=2
    polys = {}
    for mode, n in (("manufactured", 3), ("paper-literal", 2)):
        for alpha in (0.5, 0.75, 1.0):
            try:
                spec = builtin(pid, alpha, mode)
            except ProblemError:
                continue
            for solve in (ladm_solve, mldm_solve):
                records = solve(spec, n).records
                series = [s for rec in records
                          for s in (rec.u, rec.u_star, rec.poly, rec.partial_sum)]
                if spec.nonlinear is not None:
                    # what the solvers do not keep: mldm's N(S*_k), and the
                    # final record's A_n or B*_n
                    if solve is ladm_solve:
                        series.append(adomian_polys(spec.nonlinear,
                                                    [r.u for r in records])[-1])
                    else:
                        applied = [spec.nonlinear.apply(r.partial_sum) for r in records]
                        prev = applied[-2] if len(applied) > 1 else Series.zero()
                        series += applied + [series_add(applied[-1],
                                                        series_scale(prev, -1.0))]
                for s in series:
                    for t in () if s is None else s.terms:
                        polys[id(t.poly)] = t.poly
    return list(polys.values())


@pytest.mark.parametrize("pid", ["p1", "p2", "p3", "p4", "p5", "p6", "p7"])
def test_diff_matches_tree_derivative_on_solver_terms(pid):
    polys = _record_polys(pid)
    assert len(polys) >= 20
    for p in polys:
        _assert_matches_reference(p)


# ---------------------------------------------------------------------------
# random and awkward inputs
# ---------------------------------------------------------------------------


_ATOMS = (
    X, Y, Pow(X, 0.75), Pow(Const(1.0) + X, 0.5), Pow(Const(1.0) + X, -1.0),
    Pow(Const(1.0) + X * X, 13.0), Pow(Const(-1.0) * X, 0.5), Exp(Const(0.5) * X),
    Exp(X + Y), Sin(X * X), Sin(X), Cos(X), Cos(Const(3.0) * X),
    Sin(Const(math.pi) * X), Cos(Const(3.0 * math.pi) * X),
    Cos(Const(2.0 * math.pi) * Y), Pow(Const(2.0) + Y, 0.5), X * Y,
)


def _random_poly(rng):
    e = Const(0.0)
    for _ in range(rng.randint(1, 4)):
        term = Const(round(rng.uniform(-3.0, 3.0), 3))
        for _ in range(rng.randint(1, 3)):
            a = rng.choice(_ATOMS)
            if rng.random() < 0.3:
                a = Pow(a, rng.choice([2.0, 3.0, 0.5, -1.0]))
            term = term * a
        e = e + term
    return poly_of(e)


def test_diff_matches_tree_derivative_on_random_polys():
    # fractional and opaque powers, exp, sin(x^2), 2D terms, and products of
    # trig atoms over incommensurate angles of one base
    rng = random.Random(2718)
    for _ in range(300):
        _assert_matches_reference(_random_poly(rng))


def test_diff_matches_tree_derivative_on_trig_powers_kept_opaque():
    # no common angle for 1 and 3 pi, so these products stay unlinearised
    # and their powers reach the derivative as they are
    for e in (Sin(X) * Cos(X) * Pow(Cos(Const(3.0 * math.pi) * X), 2.0),
              Pow(Sin(X), 2.0) * Cos(Const(math.sqrt(2.0)) * X)
              * Sin(Const(math.e) * X),
              Const(0.7) * Sin(X) * Pow(Sin(Const(math.pi) * X), 3.0)):
        _assert_matches_reference(poly_of(e), orders=3)


def test_diff_sums_like_the_tree():
    # monomials in sorted_items order whatever the dict order ...
    p = poly_of(X * X * Sin(X) + Const(3.0) * Exp(X) + Const(0.5) * X + Cos(X))
    _assert_matches_reference(dict(reversed(list(p.items()))))
    # ... and each monomial's product-rule terms summed before they join the
    # total: the later monomial sends 1 and 2 to cos(x) exp(x) exp(2x), which
    # the earlier one already holds at 1e16, and (1e16 + 1) + 2 != 1e16 + 3
    e2 = Exp(Const(2.0) * X)
    _assert_matches_reference(poly_of(Const(1e16) * Sin(X) * Exp(X) * e2
                                      + Cos(X) * Exp(X) * e2), orders=1)


def test_diff_edge_cases():
    assert diff({}, "x") == {}
    assert diff(poly_of(Const(4.0)), "x") == {}
    assert diff(poly_of(Const(2.0) * Y), "x") == {}
    assert diff(poly_of(Const(2.0) * Y), Y) == {(): 2.0}
    with pytest.raises(ExprError):
        diff(poly_of(X), "z")


# ---------------------------------------------------------------------------
# the solver's derivative stays on polys
# ---------------------------------------------------------------------------


def test_spatial_apply_builds_no_expression(monkeypatch):
    s = mldm_solve(builtin("p7", 0.75), 3).records[-1].partial_sum
    want = [spatial_apply(s, order, var) for order in (1, 2) for var in ("x", "y")]

    def refuse(*args):
        raise AssertionError("spatial_apply went through an expression tree")

    # every atom has been seen once, so nothing below may build a tree
    for mod, name in ((symx, "poly_of"), (symx, "expr_of_poly"), (symx, "simplify"),
                      (fracterm, "poly_of"), (fracterm, "expr_of_poly")):
        monkeypatch.setattr(mod, name, refuse)
    got = [spatial_apply(s, order, var) for order in (1, 2) for var in ("x", "y")]
    for g, w in zip(got, want):
        assert [t.mu for t in g.terms] == [t.mu for t in w.terms]
        for tg, tw in zip(g.terms, w.terms):
            _assert_same(tg.poly, tw.poly)
