"""Batched symx kernels against the per-pair and per-monomial code they replace.

``poly_outer`` and the vectorised zero test promise the same floats in the
same order as the old loops, so every comparison here is bit for bit: dict
equality with ``==`` on the values, the key order, and the raw bytes of the
sampled vectors.
"""

import math
import random

import numpy as np
import pytest

from fracdecomp import symx
from fracdecomp.decomp import mldm_solve
from fracdecomp.fracterm import spatial_apply
from fracdecomp.problems import builtin
from fracdecomp.symx import Const, Cos, Pow, Sin, Var, poly_of, poly_outer
from test_poly_reads import _reference_common_angle

X = Var("x")
Y = Var("y")


# ---------------------------------------------------------------------------
# reference: the pairwise product as it stood before poly_outer
# ---------------------------------------------------------------------------


def _reference_fourier_mul(p1, p2):
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
    if not ratios:
        return None
    g = _reference_common_angle(ratios)
    if g is None:
        return None
    a1, b1 = symx._fourier_vectors(f1[2], g)
    a2, b2 = symx._fourier_vectors(f2[2], g)
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
        return plus_part(V) - minus_part(V)

    def cross(u, v):
        return np.convolve(u, v[::-1])

    A = 0.5 * (np.convolve(a1, a2) + fold_cos(cross(a1, a2)))
    A += 0.5 * (fold_cos(cross(b1, b2)) - np.convolve(b1, b2))
    B = 0.5 * (np.convolve(b1, a2) + fold_sin(cross(b1, a2)))
    B += 0.5 * (np.convolve(a1, b2) - fold_sin(cross(a1, b2)))

    out = {}
    c0 = float(A[0])
    if c0 != 0.0:
        out[()] = c0
    for m in range(1, L):
        am = float(A[m])
        if am != 0.0:
            atom = symx._trig_atom_for(base_key, base_poly, m * g, False)
            out[((atom, 1.0),)] = am
        bm = float(B[m])
        if bm != 0.0:
            atom = symx._trig_atom_for(base_key, base_poly, m * g, True)
            out[((atom, 1.0),)] = bm
    return out


def _reference_poly_mul(p1, p2):
    if p1 and p2:
        fast = _reference_fourier_mul(p1, p2)
        if fast is not None:
            return fast
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            c = c1 * c2
            if c == 0.0:
                continue
            m = symx._mono_mul(m1, m2)
            s = out.get(m, 0.0) + c
            if s == 0.0:
                out.pop(m, None)
            else:
                out[m] = s
    for mono in out:
        if symx._mono_has_trig_product(mono):
            return symx._linearize_poly(out)
    return out


def _assert_same_polys(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert list(g) == list(w)          # insertion order too
        for mono, c in g.items():
            assert type(c) is float and c == w[mono]


def _assert_outer_matches(ps, qs):
    want = [_reference_poly_mul(p, q) for p in ps for q in qs]
    _assert_same_polys(poly_outer(ps, qs), want)
    # poly_mul runs on the same convolution routine
    _assert_same_polys([symx.poly_mul(p, q) for p in ps for q in qs], want)


# ---------------------------------------------------------------------------
# poly_outer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pid", ["p6", "p7"])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_poly_outer_matches_pairwise_on_solver_iterates(pid, alpha):
    # the operands mldm multiplies: terms of S*_n and of its x-derivatives
    trace = mldm_solve(builtin(pid, alpha), 3)
    s = trace.records[-1].partial_sum
    ps = [t.poly for t in s.terms]
    qs = [t.poly for t in spatial_apply(s, 1, "x").terms]
    rs = [t.poly for t in spatial_apply(s, 2, "x").terms]
    assert len(ps) >= 10
    _assert_outer_matches(ps, ps)
    _assert_outer_matches(ps, qs)
    _assert_outer_matches(rs, ps)


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


def test_poly_outer_matches_pairwise_on_random_mixed_polys():
    rng = random.Random(5150)
    for _ in range(40):
        ps = [p for p in (_random_poly(rng) for _ in range(rng.randint(1, 4))) if p]
        qs = [q for q in (_random_poly(rng) for _ in range(rng.randint(1, 4))) if q]
        _assert_outer_matches(ps, qs)


def test_poly_outer_common_angle_depends_on_both_operands():
    # sin(x) shares g = 1 with cos(2x) but only g = 0.5 with sin(0.5x);
    # memoising the angle on one side's ratios alone would mix these up
    p = poly_of(Sin(X) + Const(2.0) * Cos(Const(3.0) * X))
    q1 = poly_of(Cos(Const(2.0) * X))
    q2 = poly_of(Sin(Const(0.5) * X) - Cos(Const(1.5) * X))
    _assert_outer_matches([p], [q1, q2, q1])
    _assert_outer_matches([q1, q2], [p])


def test_poly_outer_empty_operands():
    p = poly_of(Sin(X))
    assert poly_outer([], [p]) == [] and poly_outer([p], []) == []
    _assert_same_polys(poly_outer([{}, p], [p, {}]), [{}, {}, _reference_poly_mul(p, p), {}])


# ---------------------------------------------------------------------------
# zero test
# ---------------------------------------------------------------------------


def _reference_samples(p):
    v = np.zeros(symx.DEFAULT_SAMPLES)
    for mono, c in p.items():
        mv = np.full(symx.DEFAULT_SAMPLES, c)
        for atom, k in mono:
            mv = mv * symx._pow_value(symx._atom_sample_values(atom), k)
        v += mv
    return v


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
    got = symx._zero_check_samples(p)
    want = _reference_samples(p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_zero_check_samples_on_hand_built_polys():
    # dicts the normal form would not produce: explicit zero and negative-zero
    # coefficients and monomials that all cancel on the sample points
    x, y = symx._intern_atom(X), symx._intern_atom(Y)
    polys = [
        {((x, 1.0),): -0.0, ((y, 1.0),): -0.0},
        {(): 0.0, ((x, 2.0),): 1e-300, ((x, 2.0), (y, 1.0)): -1e-300},
        {((x, 0.5),): 1.0, ((x, 0.5), (y, 3.0)): 2.0, (): -4.0},
    ]
    for p in polys:
        assert symx._zero_check_samples(p).tobytes() == _reference_samples(p).tobytes()
        v = _reference_samples(p)
        want = bool(np.all(np.abs(v) <= 1e-12 * (1.0 + np.abs(v))))
        assert symx.is_zero_expr(p) == want
