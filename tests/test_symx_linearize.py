"""Trig linearisation on coefficient vectors, against the stepwise rewrite it
replaced.

``_linearize_mono`` multiplies each base angle's sin/cos powers out on
harmonic arrays, with the kernel series products use. The rewrite
it replaced stepped one factor at a time through a dict of multiple-angle
coefficients; that code is kept here as the reference, with the common
angle it took from ``test_poly_reads``. Both must give equal
dicts (keys and float values; insertion order may differ), and the result
must evaluate to the product it rewrites.
"""

import math
import random
from typing import Dict

import numpy as np
import pytest
from click.testing import CliRunner

from fracdecomp import symx
from fracdecomp.cli import main
from fracdecomp.symx import Const, Cos, Pow, Sin, Var, poly_of
from test_poly_reads import _reference_common_angle

X = Var("x")
Y = Var("y")


# ---------------------------------------------------------------------------
# reference: the stepwise rewrite as it stood
# ---------------------------------------------------------------------------


def _reference_fourier_step(F, k, is_sin):
    # multiply sum_m c_m cos(m th) + s_m sin(m th) by cos(k th) or sin(k th)
    out = {}

    def bump(m, dc, ds):
        if m < 0:
            m = -m
            ds = -ds
        c, s = out.get(m, (0.0, 0.0))
        if m == 0:
            out[m] = (c + dc, 0.0)
        else:
            out[m] = (c + dc, s + ds)

    for m, (c, s) in F.items():
        if is_sin:
            bump(m + k, -0.5 * s, 0.5 * c)
            bump(m - k, 0.5 * s, -0.5 * c)
        else:
            bump(m + k, 0.5 * c, 0.5 * s)
            bump(m - k, 0.5 * c, 0.5 * s)
    return out


def _reference_merge_term(p, mono, c):
    v = p.get(mono, 0.0) + c
    if v == 0.0:
        p.pop(mono, None)
    else:
        p[mono] = v


def reference_linearize_mono(mono, coeff):
    inert = []
    groups: Dict[object, list] = {}
    for atom, k in mono:
        info = None
        if isinstance(atom, (Sin, Cos)) and k >= 1.0 \
                and k <= symx.TRIG_EXPAND_MAX and float(k).is_integer():
            info = symx._trig_info(atom)
        if info is None:
            inert.append((atom, k))
        else:
            groups.setdefault(info[1], []).append((atom, int(k), info))
    poly = {tuple(inert): coeff}
    for base_key, members in groups.items():
        if len(members) == 1 and members[0][1] == 1:
            a = members[0][0]
            poly = {symx._mono_mul(m, ((a, 1.0),)): c for m, c in poly.items()}
            continue
        g = _reference_common_angle([info[2] for _, _, info in members])
        if g is None:
            for atom, e, _ in members:
                poly = {symx._mono_mul(m, ((atom, float(e)),)): c for m, c in poly.items()}
            continue
        mults = [(info[0], round(info[2] / g), e) for _, e, info in members]
        F = {0: (1.0, 0.0)}
        for is_sin, mi, e in mults:
            for _ in range(e):
                F = _reference_fourier_step(F, mi, is_sin)
        base_poly = members[0][2][3]
        new_poly = {}
        for m0, c0 in poly.items():
            for m, (cc, ss) in F.items():
                if m == 0:
                    if cc != 0.0:
                        _reference_merge_term(new_poly, m0, c0 * cc)
                    continue
                scale = m * g
                if cc != 0.0:
                    a = symx._trig_atom_for(base_key, base_poly, scale, False)
                    _reference_merge_term(new_poly, symx._mono_mul(m0, ((a, 1.0),)), c0 * cc)
                if ss != 0.0:
                    a = symx._trig_atom_for(base_key, base_poly, scale, True)
                    _reference_merge_term(new_poly, symx._mono_mul(m0, ((a, 1.0),)), c0 * ss)
        poly = new_poly
    return poly


def _assert_same_dict(got, want, mono):
    assert got == want, mono
    assert all(type(c) is float for c in got.values()), mono


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


def _atom(e):
    # the atom poly_of gives a sin/cos/exp or opaque power node
    (mono, c), = poly_of(e).items()
    assert c == 1.0 and len(mono) == 1
    return mono[0][0]


def _monomial(factors):
    # equal atoms merge their exponents, as in a product monomial
    merged = {}
    for atom, k in factors:
        merged[atom] = merged.get(atom, 0.0) + k
    return symx._mono_sorted((a, k) for a, k in merged.items() if k != 0.0)


def _random_monomial(rng, max_power):
    units = [1.0, math.pi]
    multiples = [1.0, -1.0, 2.0, -2.0, 0.5, 1.5]
    factors = []
    for _ in range(rng.randint(1, 3)):
        var = rng.choice([X, X, Y])
        ratio = rng.choice(multiples) * rng.choice(units)
        if rng.random() < 0.1:                 # incommensurate with the others
            ratio = rng.choice([math.sqrt(2.0), math.e])
        trig = rng.choice([Sin, Cos])
        factors.append((_atom(trig(Const(ratio) * var)), float(rng.randint(1, max_power))))
    if rng.random() < 0.5:                      # x^k, inert
        factors.append((X, float(rng.randint(1, 3))))
    if rng.random() < 0.2:                      # a trig power the rewrite leaves
        factors.append((_atom(Cos(Const(3.0) * Y)), rng.choice([0.5, 1.5])))
    return _monomial(factors)


def test_linearize_matches_the_stepwise_rewrite_on_random_monomials():
    rng = random.Random(8123)
    monos = {_random_monomial(rng, 20) for _ in range(1200)}
    assert len(monos) >= 1000
    opaque = 0
    for mono in monos:
        coeff = rng.choice([1.0, -2.5, rng.uniform(-3.0, 3.0)])
        want = reference_linearize_mono(mono, coeff)
        _assert_same_dict(symx._linearize_mono(mono, coeff), want, mono)
        opaque += _has_incommensurate_group(mono)
    # some monomials keep a product whose angles share no unit
    assert opaque > 20


def _has_incommensurate_group(mono):
    groups = {}
    for atom, k in mono:
        if isinstance(atom, (Sin, Cos)) and float(k).is_integer():
            info = symx._trig_info(atom)
            groups.setdefault(info[1], []).append(info[2])
    return any(len(r) > 1 and _reference_common_angle(r) is None for r in groups.values())


def test_linearize_matches_on_signs_and_lone_factors():
    s1, c1 = _atom(Sin(X)), _atom(Cos(X))
    s2, cm2 = _atom(Sin(Const(2.0) * X)), _atom(Cos(Const(-2.0) * X))
    sm1, sh = _atom(Sin(Const(-1.0) * X)), _atom(Sin(Const(0.5) * X))
    cases = [
        ((s1, 1.0),), ((s1, 2.0),), ((c1, 3.0),), ((sm1, 3.0),), ((cm2, 2.0),),
        _monomial([(s1, 1.0), (c1, 1.0)]),
        _monomial([(s2, 1.0), (sm1, 1.0)]),
        _monomial([(sh, 5.0), (s2, 2.0), (X, 2.0)]),
        _monomial([(s1, 1.0), (_atom(Sin(Y)), 1.0)]),            # two lone factors
        _monomial([(s1, 1.0), (_atom(Sin(Const(math.sqrt(2.0)) * X)), 2.0)]),
        _monomial([(s1, 2.0), (_atom(Pow(Const(1.0) + X, 0.5)), 1.0)]),
        # far-apart multiples of one angle: (x*sin(x)*sin(1000x))^12, whose
        # harmonics spread over 0..12012 with fewer than a hundred nonzero
        _monomial([(X, 12.0), (s1, 12.0), (_atom(Sin(Const(1000.0) * X)), 12.0)]),
    ]
    for mono in cases:
        for coeff in (1.0, -3.0):
            _assert_same_dict(symx._linearize_mono(mono, coeff),
                              reference_linearize_mono(mono, coeff), mono)


# x*sin(pi*x) squared reaches the rewrite through the generic product; no
# builtin does. tools/same_outputs.py solves a copy of this file.
TRIG_FILE = """\
domain = 0, 1
exact = t^alpha*x*sin(pi*x) + t*x*(1 - x)
linear = 2x:-0.1
nonlinear = u^2
"""


def test_linearize_matches_on_a_trig_file_solve(tmp_path, monkeypatch):
    path = tmp_path / "trig.txt"
    path.write_text(TRIG_FILE)
    seen = []
    real = symx._linearize_mono

    def recording(mono, coeff):
        seen.append((mono, coeff))
        return real(mono, coeff)

    monkeypatch.setattr(symx, "_LINEARIZE_CACHE", {})
    monkeypatch.setattr(symx, "_linearize_mono", recording)
    r = CliRunner().invoke(main, ["solve", "--file", str(path), "-m", "both", "-n", "2",
                                  "-a", "0.5,0.75,1.0", "-o", str(tmp_path / "o")])
    assert r.exit_code == 0, r.output
    assert len(seen) > 150
    for mono, coeff in seen:
        _assert_same_dict(real(mono, coeff), reference_linearize_mono(mono, coeff), mono)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def _values(poly, env):
    total = np.zeros_like(env["x"])
    scale = np.zeros_like(env["x"])
    for mono, c in poly.items():
        row = np.full_like(env["x"], c)
        for atom, k in mono:
            row = row * symx._pow_value(symx.evaluate(atom, env), k)
        total += row
        scale += np.abs(row)
    return total, scale


@pytest.mark.parametrize("max_power", [20, 60, symx.TRIG_EXPAND_MAX])
def test_linearize_keeps_the_product_value(max_power):
    rng = random.Random(311 + max_power)
    # cos(3y) > 0 on y < 0.5, where its fractional powers are defined
    env = symx.sample_points(((0.0, 1.0), (0.0, 0.5)))
    worst = 0.0
    for _ in range(200 if max_power <= 60 else 10):
        mono = _random_monomial(rng, max_power)
        direct = np.ones_like(env["x"])
        for atom, k in mono:
            direct = direct * symx._pow_value(symx.evaluate(atom, env), k)
        got, scale = _values(symx._linearize_mono(mono, 1.0), env)
        worst = max(worst, float(np.max(np.abs(got - direct) / np.maximum(scale, 1.0))))
    assert worst <= 1e-13, worst
