"""Batched symx kernels against the per-pair and per-monomial code they replace.

``fourier_sums`` forms the products of a series product of Fourier
coefficients and sums them per group on the harmonic kernel, in a fixed
order of its own; with every pair in a group of its own it is the outer
product of two poly lists, and ``poly_mul`` is its one-pair case. The
reference here is the per-pair product it replaced, which convolved
coefficient vectors with ``np.convolve``, summed per group dict by dict.
The sums are compared per monomial within 1e-13 of the sum of |products|
landing on it.
The vectorised zero test promises the same floats in the same order as
the old loop, so those comparisons are bit for bit: the raw bytes of the
sampled vectors.
"""

import math
import random

import numpy as np
import pytest

from fracdecomp import symx
from fracdecomp.decomp import mldm_solve
from fracdecomp.fracterm import _mu_groups, spatial_apply
from fracdecomp.problems import builtin
from fracdecomp.symx import Const, Cos, Pow, Sin, Var, fourier_sums, poly_of
from test_poly_reads import _reference_common_angle
from test_poly_reads import _reference_zero_samples as _reference_samples

X = Var("x")
Y = Var("y")
# per monomial, |got - want| <= SUM_TOL * (sum of |products| landing on it)
SUM_TOL = 1e-13


# ---------------------------------------------------------------------------
# reference: the pairwise product as it stood before the harmonic kernel
# ---------------------------------------------------------------------------


def _reference_vectors(items, g):
    # the (cos, sin) coefficient vectors of _fourier_poly_items on unit g
    ms = [abs(round(r / g)) for r, _, _ in items if r is not None]
    M = max(ms) if ms else 0
    a = np.zeros(M + 1)
    b = np.zeros(M + 1)
    for r, is_sin, c in items:
        if r is None:
            a[0] += c
            continue
        m = round(r / g)
        if m < 0:
            m = -m
            if is_sin:
                c = -c
        if is_sin:
            b[m] += c
        else:
            a[m] += c
    return a, b


def _reference_convolve(a1, b1, a2, b2, sign):
    # the product's (cos, sin) vectors; with sign = +1 every product is
    # added with a plus sign, which gives the sum of |products| per slot
    # when the inputs are absolute values
    off = len(a2) - 1
    L = len(a1) + len(a2) - 1

    def plus_part(V):
        out = np.zeros(L)
        out[:L - off] = V[off:]
        return out

    def minus_part(V):
        out = np.zeros(L)
        out[:off + 1] = V[off::-1]
        return out

    def fold_cos(V):
        F = plus_part(V) + minus_part(V)
        F[0] = V[off]
        return F

    def fold_sin(V):
        return plus_part(V) + sign * minus_part(V)

    def cross(u, v):
        return np.convolve(u, v[::-1])

    A = 0.5 * (np.convolve(a1, a2) + fold_cos(cross(a1, a2)))
    A += 0.5 * (fold_cos(cross(b1, b2)) + sign * np.convolve(b1, b2))
    B = 0.5 * (np.convolve(b1, a2) + fold_sin(cross(b1, a2)))
    B += 0.5 * (np.convolve(a1, b2) + sign * fold_sin(cross(a1, b2)))
    return A, B


def _reference_fourier_mul(p1, p2):
    # (product, sum of |products| per monomial), or None off the Fourier path
    f1 = symx._fourier_poly_items(p1)
    if f1 is None:
        return None
    f2 = symx._fourier_poly_items(p2)
    if f2 is None:
        return None
    if f1[0] is not f2[0] and f1[0] != f2[0]:
        return None
    base_key, base_poly, _ = f1
    ratios = [r for r, _, _ in f1[2] if r is not None]
    ratios += [r for r, _, _ in f2[2] if r is not None]
    g = _reference_common_angle(ratios)
    if g is None:
        return None
    a1, b1 = _reference_vectors(f1[2], g)
    a2, b2 = _reference_vectors(f2[2], g)
    A, B = _reference_convolve(a1, b1, a2, b2, -1.0)
    SA, SB = _reference_convolve(np.abs(a1), np.abs(b1), np.abs(a2), np.abs(b2), 1.0)
    SB[0] = 0.0                                   # no sin(0) monomial
    out, scale = {}, {}
    for m in range(len(A)):
        for is_sin, v, s in ((False, A[m], SA[m]), (True, B[m], SB[m])):
            if s == 0.0:
                continue
            if m == 0:
                mono = ()
            else:
                atom = symx._trig_atom_for(base_key, base_poly, m * g, is_sin)
                mono = ((atom, 1.0),)
            scale[mono] = float(s)
            if v != 0.0:
                out[mono] = float(v)
    return out, scale


def _reference_poly_mul(p1, p2):
    if p1 and p2:
        fast = _reference_fourier_mul(p1, p2)
        if fast is not None:
            return fast
    out, scale = {}, {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            c = c1 * c2
            if c == 0.0:
                continue
            m = symx._mono_mul(m1, m2)
            scale[m] = scale.get(m, 0.0) + abs(c)
            s = out.get(m, 0.0) + c
            if s == 0.0:
                out.pop(m, None)
            else:
                out[m] = s
    for mono in out:
        if symx._mono_has_trig_product(mono):
            # the rewrite is exact on these inputs; bound it by its output
            out = symx._linearize_poly(out)
            return out, {m: abs(c) for m, c in out.items()}
    return out, scale


def _reference_sums(ps, qs, groups):
    out = []
    for group in groups:
        want, scale = {}, {}
        for f in group:
            prod, s = _reference_poly_mul(ps[f // len(qs)], qs[f % len(qs)])
            symx.poly_add_into(want, prod)
            for mono, v in s.items():
                scale[mono] = scale.get(mono, 0.0) + v
        out.append((want, scale))
    return out


def _worst_ratio(got, want, scale):
    # max over monomials of |got - want| / (sum of |products|); a monomial
    # no product lands on must not appear at all
    worst = 0.0
    for mono in set(got) | set(want):
        gap = abs(got.get(mono, 0.0) - want.get(mono, 0.0))
        if gap == 0.0:
            continue
        s = scale.get(mono, 0.0)
        assert s > 0.0, mono
        worst = max(worst, gap / s)
    return worst


def _on_one_angle(polys):
    # every poly single-base Fourier on one base, with a common angle unit
    forms = [symx._fourier_poly_items(p) for p in polys]
    if None in forms or any(f[0] != forms[0][0] for f in forms):
        return False
    return _reference_common_angle([r for f in forms for r, _, _ in f[2]
                                    if r is not None]) is not None


def _sums(ps, qs, groups):
    # what a series product forms: one kernel call on Fourier coefficients,
    # else poly_mul per pair, summed per group
    got = fourier_sums(ps, qs, groups)
    assert (got is not None) == (bool(ps) and bool(qs) and _on_one_angle(ps + qs))
    if got is None:
        got = []
        for group in groups:
            out = {}
            for f in group:
                symx.poly_add_into(out, symx.poly_mul(ps[f // len(qs)], qs[f % len(qs)]))
            got.append(out)
    return got


def _assert_sums_match(ps, qs, groups):
    got = _sums(ps, qs, groups)
    assert len(got) == len(groups)
    worst = 0.0
    for g, (want, scale) in zip(got, _reference_sums(ps, qs, groups)):
        assert all(type(c) is float and c != 0.0 for c in g.values())
        worst = max(worst, _worst_ratio(g, want, scale))
    assert worst <= SUM_TOL, worst
    return worst


def _every_pair_alone(ps, qs):
    return [[f] for f in range(len(ps) * len(qs))]


def _by_exponent(mus_p, mus_q):
    return _mu_groups([a + b for a in mus_p for b in mus_q])


# ---------------------------------------------------------------------------
# fourier_sums and poly_mul
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pid", ["p6", "p7"])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_fourier_sums_match_pairwise_on_solver_iterates(pid, alpha):
    # the operands mldm multiplies: terms of S*_n and of its x-derivatives,
    # each pair alone and grouped by exponent as series_mul groups them
    s = mldm_solve(builtin(pid, alpha), 3).records[-1].partial_sum
    ds = [s, spatial_apply(s, 1, "x"), spatial_apply(s, 2, "x")]
    assert len(s.terms) >= 10
    for a, b in ((0, 0), (0, 1), (2, 0)):
        ps = [t.poly for t in ds[a].terms]
        qs = [t.poly for t in ds[b].terms]
        _assert_sums_match(ps, qs, _every_pair_alone(ps, qs))
        _assert_sums_match(ps, qs, _by_exponent([t.mu for t in ds[a].terms],
                                                [t.mu for t in ds[b].terms]))


def test_fourier_sums_hold_the_bound_on_a_deep_p7_solve():
    # p7's coefficients reach 1e24 by n = 4; the bound is relative to the
    # products, so it holds where the sums cancel by many orders
    s = mldm_solve(builtin("p7", 0.75), 4).records[-1].partial_sum
    ps = [t.poly for t in s.terms]
    mus = [t.mu for t in s.terms]
    assert max(abs(c) for p in ps for c in p.values()) > 1e20
    _assert_sums_match(ps, ps, _by_exponent(mus, mus))


def _random_poly(rng):
    two_pi = 2.0 * math.pi
    kind = rng.randrange(6)
    terms = []
    for _ in range(rng.randint(1, 5)):
        c = Const(round(rng.uniform(-3.0, 3.0), 3))
        m = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
        trig = rng.choice([Sin, Cos])
        if kind == 0:      # Fourier over one base, commensurate multiples
            terms.append(c * trig(Const(m * two_pi) * X))
        elif kind == 1:    # x^k times a trig atom: the generic product
            terms.append(c * Pow(X, float(rng.randint(1, 3))) * trig(Const(m) * X))
        elif kind == 2:    # two bases
            terms.append(c * trig(Const(m) * rng.choice([X, Y])))
        elif kind == 3:    # constants only
            terms.append(c)
        elif kind == 4:    # incommensurate angles over one base
            terms.append(c * trig(Const(rng.choice([1.0, math.sqrt(2.0), math.e])) * X))
        else:              # Fourier plus a constant
            terms.append(c * trig(Const(m * two_pi) * X) + Const(0.25))
    e = terms[0]
    for t in terms[1:]:
        e = e + t
    return poly_of(e)


def _random_groups(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    groups = []
    while order:
        k = rng.randint(1, 3)
        groups.append(sorted(order[:k]))
        order = order[k:]
    return groups


def test_fourier_sums_match_pairwise_on_random_mixed_polys():
    rng = random.Random(5150)
    for _ in range(40):
        ps = [p for p in (_random_poly(rng) for _ in range(rng.randint(1, 4))) if p]
        qs = [q for q in (_random_poly(rng) for _ in range(rng.randint(1, 4))) if q]
        _assert_sums_match(ps, qs, _every_pair_alone(ps, qs))
        _assert_sums_match(ps, qs, _random_groups(rng, len(ps) * len(qs)))


def test_poly_mul_is_the_one_pair_kernel():
    rng = random.Random(77)
    kernel = 0
    for _ in range(300):
        p, q = _random_poly(rng), _random_poly(rng)
        got = symx.poly_mul(p, q)
        want = fourier_sums([p], [q], [[0]])
        if want is not None:
            kernel += 1
            assert got == want[0] and list(got) == list(want[0])
    assert kernel >= 20


def test_fourier_sums_common_angle_depends_on_both_operands():
    # sin(x) shares g = 1 with cos(2x) but only g = 0.5 with sin(0.5x)
    p = poly_of(Sin(X) + Const(2.0) * Cos(Const(3.0) * X))
    q1 = poly_of(Cos(Const(2.0) * X))
    q2 = poly_of(Sin(Const(0.5) * X) - Cos(Const(1.5) * X))
    _assert_sums_match([p], [q1, q2, q1], [[0], [1], [2], [0, 2]])
    _assert_sums_match([q1, q2], [p], [[0], [1], [0, 1]])


def test_fourier_sums_empty_operands():
    p = poly_of(Sin(X))
    assert fourier_sums([], [p], []) is None and fourier_sums([p], [], []) is None
    assert fourier_sums([{}, p], [p], [[0], [1]]) is None
    # a group no pair falls in sums to the empty poly
    assert fourier_sums([p], [p], [[], [0]]) == [{}, _reference_poly_mul(p, p)[0]]


def test_harmonic_sums_skip_zero_harmonics():
    # a product of far-apart multiples runs on the nonzero harmonics only,
    # and still fills the slots m + k and |m - k| of the full width
    p = poly_of(Sin(X) + Cos(Const(1000.0) * X))
    q = poly_of(Const(3.0) * Sin(Const(999.0) * X))
    got, = fourier_sums([p], [q], [[0]])
    want = poly_of(Const(1.5) * Cos(Const(998.0) * X) - Const(1.5) * Cos(Const(1000.0) * X)
                   + Const(1.5) * Sin(Const(1999.0) * X) - Const(1.5) * Sin(X))
    assert got == want


# ---------------------------------------------------------------------------
# zero test
# ---------------------------------------------------------------------------


def _zero_test_cases():
    w = Const(2.0 * math.pi)
    return [
        Sin(w * X) + Const(3.0),                                   # 1 atom
        X * Sin(w * X) + Const(0.5) * X * X * Cos(w * X),          # 2 atoms
        X * Y * Sin(w * X) - Const(2.0) * X * Y * Y * Cos(w * Y),  # 3 atoms
        Const(1e-49) * Sin(w * X) + Const(-1e-49) * X,             # dust
        Const(1e-12) * X + Const(-1e-12) * Cos(w * X),             # tolerance edge
        Const(9.99e-13) * Sin(w * X) + Const(1.001e-12) * X,
        Pow(X, 0.75) * Sin(w * X) + Const(2.0) * Pow(X, 1.5) + Const(-1.0),
        Const(0.1) * Sin(w * X) + Const(0.2) * Sin(w * X)          # rounding
        - Const(0.3) * Sin(w * X) + Const(1e-17) * X * Y,          # residue
    ]


@pytest.mark.parametrize("case", range(len(_zero_test_cases())))
def test_zero_check_samples_match_monomial_loop(case):
    p = poly_of(_zero_test_cases()[case])
    assert len(p) >= 2
    (got,), _ = symx._ZERO_CHECK.read((p.items(),))
    want = _reference_samples(p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_zero_check_samples_on_hand_built_polys():
    # dicts the normal form would not produce: explicit zero and negative-zero
    # coefficients and monomials that all cancel on the sample points
    polys = [
        {((X, 1.0),): -0.0, ((Y, 1.0),): -0.0},
        {(): 0.0, ((X, 2.0),): 1e-300, ((X, 2.0), (Y, 1.0)): -1e-300},
        {((X, 0.5),): 1.0, ((X, 0.5), (Y, 3.0)): 2.0, (): -4.0},
    ]
    for p in polys:
        (got,), _ = symx._ZERO_CHECK.read((p.items(),))
        assert got.tobytes() == _reference_samples(p).tobytes()
        v = _reference_samples(p)
        want = bool(np.all(np.abs(v) <= 1e-12 * (1.0 + np.abs(v))))
        assert symx.is_zero_expr(p) == want
