"""Spatial expression trees: the coefficient algebra under the time series.

Node set: real constants, variables ``x``/``y`` (``t`` appears only
transiently while parsing time-dependent input), n-ary sums and products,
powers with a real exponent, and ``sin``/``cos``/``exp``. Expressions are
immutable and built once per structure: a constructor returns the node
already built with the same type and normalized fields, so equality of
expressions is identity, and a monomial merge or a dict keyed on atoms
compares nodes by ``is``. ``simplify`` rewrites to a multinomial normal
form over irreducible atoms (variables and transcendental nodes), so
identity of simplified expressions doubles as semantic equality for
polynomial content; polys that share no normal form are compared with
``equal_sampled`` on deterministic quasi-random points.

Single-base Fourier polys on one angle unit multiply through one harmonic
kernel, ``fourier_sums``: sums over groups of pairs from two lists, as a
series product sums its term products per exponent. It forms every product
elementwise, sums each group's products with ``np.add.reduceat`` and adds
the sums into their multiple-angle slots with ``np.bincount``, all in a fixed
order and with no BLAS routine, so the sums are the same whatever BLAS
kernel runs. ``poly_mul`` runs it on one pair, and
takes any other pair through the generic monomial product, whose products of
sin/cos over one base angle are rewritten onto multiple angles by the same
kernel.
``diff`` differentiates a poly by the product and chain rules, with no tree
(a one-factor monomial scales its factor's cached derivative);
``factor_diff`` gives the cached first or second derivative of one factor.
Polys are read numerically through a factor table, ``FactorTable``: a
row of values per factor (atom, k) on the points of an env and, on request,
rows of its first and second x or y derivatives (from ``factor_diff``),
each kept under a row index. ``FactorTable.read`` is the table's one entry
point. It takes many polys at once: a block of monomials gathers its
factors' rows by index, multiplies them into monomial rows, carrying the
derivatives by the product rule, and sums each poly's rows in the caller's
order from +0.0, so a poly sums the same bits read alone or with others; no
row helper is exported. Every read runs under one overflow policy, a single
``np.errstate(all="ignore")``: a value that overflows is an inf or nan
sample, which its caller judges (not zero, not close, not finite on the
grid), and never a RuntimeWarning.
A read builds the derivative rows it lacks with one more read per
derivative key, of all their ``factor_diff`` polys at once, and a table
keeps each monomial's ``sorted_items`` key beside its row indices
(``FactorTable.sorted_items``), so a key is computed once per table.
The zero check keeps one table on its points for the life of the process,
and ``zero_decisions`` decides every new term of a canonicalization from
one read of it (``is_zero_expr`` is its one-poly case). ``equal_sampled``
and ``series_equal`` build a table on a domain's sample points, and each
evaluation ``Grid`` owns one on its space grid, through which a report
reads all the partial sums of a trace at once.
``evaluate`` walks a tree: it fills the atom rows and serves
``fracterm.eval_series``.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Sum",
    "Prod",
    "Pow",
    "Sin",
    "Cos",
    "Exp",
    "ExprError",
    "UnboundVariableError",
    "PowerDomainError",
    "diff",
    "factor_diff",
    "fourier_sums",
    "evaluate",
    "simplify",
    "contains",
    "equal_sampled",
    "sample_points",
    "is_zero_expr",
    "zero_decisions",
    "FactorTable",
    "poly_substitute",
    "sorted_items",
    "X",
    "Y",
    "ZERO",
    "ONE",
]

Scalar = Union[int, float]
EnvValue = Union[float, np.ndarray]

# Exponents this close to an integer are snapped onto it.
EXPONENT_SNAP = 1e-12
# Largest integer power that gets expanded over a sum.
EXPAND_POW_MAX = 12
# Points of a sampled comparison.
SAMPLES = 64
DEFAULT_TOL = 1e-10
# Fallback sampling box for zero detection; any interval works for the
# analytic node set (zero on 64 quasi-random points of a box ~ zero function).
ZERO_CHECK_DOMAIN = ((0.0, 2.0), (0.0, 2.0))
ZERO_COEFF_TOL = 1e-12


class ExprError(Exception):
    """Base class for expression failures."""


class UnboundVariableError(ExprError):
    pass


class PowerDomainError(ExprError):
    pass


# every node built, under its type and normalized fields; a constructor
# returns the entry when there is one, and no entry is ever removed
_NODES: Dict[tuple, "Expr"] = {}


class Expr:
    """Immutable expression node, built once per structure.

    Each constructor normalizes its fields and returns the node already in
    ``_NODES`` under the same type and fields, so two expressions are equal
    exactly when they are the same object: equality and hashing are
    Python's identity defaults. A node caches its sort key and normal form.
    """

    __slots__ = ("_canon", "_skey")

    @classmethod
    def _node(cls, key: tuple, **fields) -> "Expr":
        """The node of type cls under key, built with fields the first time."""
        key = (cls,) + key
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            node._canon = node._skey = None
            for name, value in fields.items():
                setattr(node, name, value)
        return node

    def __reduce__(self):
        # copy and pickle rebuild a node through its constructor, which
        # returns the node itself; the constructor takes the fields of the
        # nearest class that declares any
        fields = next(c.__slots__ for c in type(self).__mro__ if c.__slots__)
        return type(self), tuple(getattr(self, f) for f in fields)

    # -- construction sugar --------------------------------------------

    @staticmethod
    def wrap(value: Union["Expr", Scalar]) -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, float)):
            return Const(float(value))
        raise TypeError(f"cannot build an expression from {value!r}")

    def __add__(self, other):
        return Sum((self, Expr.wrap(other)))

    def __radd__(self, other):
        return Sum((Expr.wrap(other), self))

    def __sub__(self, other):
        return Sum((self, Prod((Const(-1.0), Expr.wrap(other)))))

    def __mul__(self, other):
        return Prod((self, Expr.wrap(other)))

    def __rmul__(self, other):
        return Prod((Expr.wrap(other), self))

    def __neg__(self):
        return Prod((Const(-1.0), self))

    def __truediv__(self, other):
        den = Expr.wrap(other)
        if isinstance(den, Const):
            if den.value == 0.0:
                raise ZeroDivisionError("division by constant zero")
            return Prod((self, Const(1.0 / den.value)))
        return Prod((self, Pow(den, -1.0)))

    def __str__(self) -> str:
        return _render(self, 0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: Scalar):
        value = float(value)
        # -0.0 == 0.0, so the sign of a zero is part of the key
        return cls._node((value, math.copysign(1.0, value)), value=value)


class Var(Expr):
    __slots__ = ("name",)

    _ALLOWED = ("x", "y", "t")

    def __new__(cls, name: str):
        if name not in cls._ALLOWED:
            raise ExprError(f"unknown variable {name!r}; expected one of {cls._ALLOWED}")
        return cls._node((name,), name=name)


class Sum(Expr):
    __slots__ = ("args",)

    def __new__(cls, args: tuple):
        args = tuple(args)
        if not args:
            raise ExprError("empty sum")
        return cls._node(args, args=args)


class Prod(Expr):
    __slots__ = ("args",)

    def __new__(cls, args: tuple):
        args = tuple(args)
        if not args:
            raise ExprError("empty product")
        return cls._node(args, args=args)


class Pow(Expr):
    """base raised to a fixed real exponent."""

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Scalar):
        exponent = _snap(float(exponent))
        return cls._node((base, exponent), base=base, exponent=exponent)


class _Unary(Expr):
    __slots__ = ("arg",)

    def __new__(cls, arg: Expr):
        return cls._node((arg,), arg=arg)


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


X = Var("x")
Y = Var("y")
ZERO = Const(0.0)
ONE = Const(1.0)


def _snap(value: float) -> float:
    r = round(value)
    return float(r) if abs(value - r) <= EXPONENT_SNAP else value


# ---------------------------------------------------------------------------
# Multinomial normal form.
#
# A poly is {monomial: coefficient}; a monomial is a tuple of (atom, exponent)
# pairs sorted by the atom's sort key. Atoms are canonical Vars, transcendental
# nodes over canonical arguments, or opaque Pow nodes that cannot be expanded.
# ---------------------------------------------------------------------------

Mono = tuple
Poly = dict


def _sort_key(e: Expr):
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Pow):
        return (2, _skey_of(e.base), e.exponent)
    if isinstance(e, Sin):
        return (3, _skey_of(e.arg))
    if isinstance(e, Cos):
        return (4, _skey_of(e.arg))
    if isinstance(e, Exp):
        return (5, _skey_of(e.arg))
    if isinstance(e, Prod):
        return (6, tuple(_skey_of(a) for a in e.args))
    if isinstance(e, Sum):
        return (7, tuple(_skey_of(a) for a in e.args))
    raise ExprError(f"unsupported node {type(e).__name__}")


def _skey_of(e: Expr):
    k = e._skey
    if k is None:
        k = _sort_key(e)
        e._skey = k
    return k


def _mono_key(mono: Mono) -> tuple:
    """A monomial's place in monomial order: total degree (``math.fsum`` of
    the exponents), then factor by factor atom sort key and exponent."""
    return (math.fsum(k for _, k in mono), tuple((_skey_of(a), k) for a, k in mono))


def sorted_items(p: Poly) -> list:
    """p's ``(mono, c)`` items in monomial order (``_mono_key``), the order in
    which ``expr_of_poly`` lays out terms; a tie keeps dict order."""
    if len(p) < 2:
        return list(p.items())
    return sorted(p.items(), key=lambda kv: _mono_key(kv[0]))


def _mono_sorted(items) -> Mono:
    return tuple(sorted(items, key=lambda ak: _skey_of(ak[0])))


def poly_add(p1: Poly, p2: Poly) -> Poly:
    if not p1:
        return dict(p2)
    out = dict(p1)
    poly_add_into(out, p2)
    return out


def poly_add_into(out: Poly, p: Poly) -> None:
    """Add p into ``out`` in place; ``out`` must be a dict the caller owns."""
    for mono, c in p.items():
        s = out.get(mono, 0.0) + c
        if s == 0.0:
            out.pop(mono, None)
        else:
            out[mono] = s


def poly_scale(p: Poly, k: float) -> Poly:
    if k == 0.0:
        return {}
    return {m: c * k for m, c in p.items()}


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    # both sides are sorted by atom sort key, and an atom is one node per
    # structure, so this is a linear merge deciding collisions by identity
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a1, k1 = m1[i]
        a2, k2 = m2[j]
        if a1 is a2:
            nk = _snap(k1 + k2)
            if nk != 0.0:
                out.append((a1, nk))
            i += 1
            j += 1
        elif _skey_of(a1) < _skey_of(a2):
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def poly_mul(p1: Poly, p2: Poly) -> Poly:
    got = fourier_sums([p1], [p2], [[0]])
    return _generic_mul(p1, p2) if got is None else got[0]


def _generic_mul(p1: Poly, p2: Poly) -> Poly:
    out = _mono_products(p1, p2)
    for mono in out:
        if _mono_has_trig_product(mono):
            return _linearize_poly(out)
    return out


def _mono_products(p1: Poly, p2: Poly) -> Poly:
    """The product of p1 and p2 monomial by monomial, with no rewrite."""
    out: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            c = c1 * c2
            if c == 0.0:
                continue
            m = _mono_mul(m1, m2)
            s = out.get(m, 0.0) + c
            if s == 0.0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _poly_pow_int(p: Poly, n: int) -> Poly:
    out: Poly = {(): 1.0}
    base = p
    while n > 0:
        if n & 1:
            out = poly_mul(out, base)
        n >>= 1
        if n:
            base = poly_mul(base, base)
    return out


# -- Trig products -----------------------------------------------------------
#
# Products and integer powers of sin/cos over commensurate arguments are
# rewritten onto the multiple-angle basis, where every monomial carries at
# most one trig atom per base angle, at the first power. Without this the
# monomial count under repeated multiplication grows with the square of the
# trig degree; on the multiple-angle basis it stays linear.
#
# One kernel does the rewrite. Single-base Fourier polys become rows of a
# harmonic array of cosine and sine coefficients over a common angle unit g
# (``_harmonics``), ``_harmonic_sums`` multiplies pairs of rows and sums the
# products per output row in a fixed order, and ``_fourier_polys`` turns the
# rows back into monomials. ``fourier_sums`` runs every product of a series
# product through it at once; ``_linearize_mono`` multiplies out
# the integer sin/cos powers of one monomial, base angle by base angle. The
# coefficients are integers over 2^d at total trig degree d, so the rewrite
# is exact while d stays below the 53 bits of a float's mantissa.

TRIG_RATIO_TOL = 1e-9
TRIG_EXPAND_MAX = 512
# Multiples past this are treated as incommensurate: a genuine common angle
# this fine is indistinguishable from Euclid bottoming out on noise.
TRIG_MULTIPLE_MAX = 4096

_TRIG_UNSET = object()
# atom -> (is_sin, base_key, ratio, base_poly) or None
_TRIG_INFO: Dict[Expr, object] = {}
# (base_key, angle_scale, is_sin) -> multiple-angle atom
_TRIG_ATOMS: Dict[tuple, Expr] = {}


def _trig_info(atom: Expr):
    """Base angle of a sin/cos atom: its argument normalized so the leading
    coefficient is one, plus the ratio that recovers the argument."""
    got = _TRIG_INFO.get(atom, _TRIG_UNSET)
    if got is not _TRIG_UNSET:
        return got
    p = poly_of(atom.arg)
    info = None
    if p:
        c0 = sorted_items(p)[0][1]
        base = {m: c / c0 for m, c in p.items()}
        info = (isinstance(atom, Sin), expr_of_poly(base), c0, base)
    _TRIG_INFO[atom] = info
    return info


def _mono_has_trig_product(mono: Mono) -> bool:
    bases = []
    for atom, k in mono:
        if not isinstance(atom, (Sin, Cos)):
            continue
        if k >= 2.0 and k <= TRIG_EXPAND_MAX and float(k).is_integer():
            return True
        info = _trig_info(atom)
        if info is None:
            continue
        if info[1] in bases:
            return True
        bases.append(info[1])
    return False


def _fgcd(a: float, b: float) -> float:
    a, b = abs(a), abs(b)
    if a < b:
        a, b = b, a
    for _ in range(64):
        if b <= TRIG_RATIO_TOL * a:
            break
        a, b = b, math.fmod(a, b)
    return a


def _fold(g: float, ratios) -> float:
    for r in ratios:
        g = _fgcd(g, r)
    return g


def _reanchor(g: float, rmin: float) -> float:
    # re-anchor g on the smallest ratio so exact inputs reproduce exactly
    q = round(rmin / g)
    if q >= 1 and abs(rmin - q * g) <= TRIG_RATIO_TOL * (rmin + g):
        g = rmin / q
    return g


def _all_multiples(ratios, g: float) -> bool:
    for r in ratios:
        mi = round(r / g)
        if mi == 0 or abs(mi) > TRIG_MULTIPLE_MAX \
                or abs(r - mi * g) > TRIG_RATIO_TOL * (abs(r) + g):
            return False
    return True


def _pair_angle(r1: tuple, r2: tuple):
    """The angle unit g of which every ratio in r1 + r2 (two non-empty ratio
    tuples) is a nonzero integer multiple, or None."""
    ratios = r1 + r2
    g = _reanchor(_fold(abs(ratios[0]), ratios[1:]), min(abs(r) for r in ratios))
    return g if _all_multiples(ratios, g) else None


def _trig_atom_for(base_key: Expr, base_poly: Poly, angle_scale: float,
                   want_sin: bool) -> Expr:
    key = (base_key, angle_scale, want_sin)
    atom = _TRIG_ATOMS.get(key)
    if atom is None:
        arg = expr_of_poly(poly_scale(base_poly, angle_scale))
        atom = Sin(arg) if want_sin else Cos(arg)
        _TRIG_ATOMS[key] = atom
    return atom


def _fourier_poly_items(p: Poly):
    """(base_key, base_poly, [(ratio or None, is_sin, coeff)]) when every
    monomial is a constant or one first-power sin/cos over a common base."""
    base_key = None
    base_poly = None
    items = []
    for mono, c in p.items():
        if not mono:
            items.append((None, False, c))
            continue
        if len(mono) != 1:
            return None
        atom, k = mono[0]
        if k != 1.0 or not isinstance(atom, (Sin, Cos)):
            return None
        info = _trig_info(atom)
        if info is None:
            return None
        if base_key is None:
            base_key, base_poly = info[1], info[3]
        elif info[1] is not base_key:
            return None
        items.append((info[2], info[0], c))
    if base_key is None:
        return None
    return base_key, base_poly, items


def fourier_sums(ps: List[Poly], qs: List[Poly], groups: List[List[int]]):
    """For each group, a list of indices ``i * len(qs) + j`` into the outer
    product, the sum of the products ps[i] * qs[j] over the group, all from
    one call of the harmonic kernel; None unless every poly of both lists is
    a single-base Fourier poly on one base and their ratios, together, are
    integer multiples of one angle unit g."""
    if not ps or not qs:
        return None
    forms = []
    for p in ps + qs:
        f = _fourier_poly_items(p)
        if f is None or (forms and f[0] is not forms[0][0]):
            return None
        forms.append(f)
    g = _pair_angle(_form_ratios(forms[:len(ps)]), _form_ratios(forms[len(ps):]))
    if g is None:
        return None
    flat = np.array([f for group in groups for f in group], dtype=np.intp)
    rows = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    H = _harmonic_sums(_harmonics(forms[:len(ps)], g), _harmonics(forms[len(ps):], g),
                       flat // len(qs), flat % len(qs), rows, len(groups))
    return _fourier_polys(H, forms[0][0], forms[0][1], g)


def _form_ratios(forms) -> tuple:
    """The distinct ratios of ``_fourier_poly_items`` forms, in first-seen
    order; never empty, as each form holds a trig monomial."""
    return tuple(dict.fromkeys(r for _, _, items in forms for r, _, _ in items
                               if r is not None))


def _harmonics(forms, g: float) -> np.ndarray:
    """The harmonic array of ``_fourier_poly_items`` forms on the angle unit
    g, shape (len(forms), 2, M + 1): [i, 0, m] is form i's coefficient of
    cos(m g th) (the constant at m = 0) and [i, 1, m] that of sin(m g th).
    A negative multiple folds onto m > 0, flipping the sign of a sine."""
    rows, sines, ratios, coeffs = [], [], [], []
    for i, (_, _, items) in enumerate(forms):
        for r, is_sin, c in items:
            rows.append(i)
            sines.append(is_sin)
            ratios.append(0.0 if r is None else r)
            coeffs.append(c)
    m = np.rint(np.array(ratios) / g)
    sines = np.array(sines, dtype=bool)
    coeffs = np.where(sines & (m < 0.0), np.negative(coeffs), coeffs)
    m = np.abs(m).astype(np.intp)
    width = int(m.max()) + 1
    cells = (np.array(rows, dtype=np.intp) * 2 + sines) * width + m
    return np.bincount(cells, coeffs, 2 * width * len(forms)).reshape(len(forms), 2, width)


# Products per block of ``_harmonic_sums`` (8 bytes each; one block of
# products is alive at a time, beside sums no larger than it).
HARMONIC_BLOCK = 1 << 15


def _harmonic_sums(H1: np.ndarray, H2: np.ndarray, i1: np.ndarray, i2: np.ndarray,
                   rows: np.ndarray, nrows: int) -> np.ndarray:
    """Sums of products of Fourier series on harmonic arrays: row r of the
    result, shape (nrows, 2, width), is the sum over the pairs p with
    rows[p] == r of the product of series H1[i1[p]] and H2[i2[p]].

    Only the harmonics m of H1 and k of H2 that are nonzero in some series
    take part. Each run of adjacent pairs of one row is summed per (m, k)
    first, then each sum goes to slots m + k and |m - k| by

        cos m cos k = (cos(m+k) + cos(m-k)) / 2,
        sin m sin k = (cos(m-k) - cos(m+k)) / 2,
        sin m cos k = (sin(m+k) + sin(m-k)) / 2,
        cos m sin k = (sin(m+k) - sin(m-k)) / 2.

    The products are elementwise multiplies, ``HARMONIC_BLOCK`` at a time,
    summed over a row's pairs by ``np.add.reduceat``; ``np.bincount`` then
    adds each slot's terms in input order. No BLAS routine takes part, so
    the sums do not depend on which BLAS kernel runs.
    """
    m = np.flatnonzero(H1.any(axis=(0, 1)))
    k = np.flatnonzero(H2.any(axis=(0, 1)))
    if not m.size or not k.size:
        return np.zeros((nrows, 2, 1))
    width = int(m[-1] + k[-1]) + 1
    # harmonics by series, so that a block's pairs lie along its last axis
    a1, b1 = H1[:, 0, m].T[:, None, :], H1[:, 1, m].T[:, None, :]
    a2, b2 = H2[:, 0, k].T[None], H2[:, 1, k].T[None]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    out = np.zeros(nrows * 2 * width)
    pstep = max(1, HARMONIC_BLOCK // m.size)
    kstep = max(1, HARMONIC_BLOCK // (m.size * min(pstep, len(rows))))
    for s in range(0, len(rows), pstep):
        p, q = i1[s:s + pstep], i2[s:s + pstep]
        head = first[s:s + pstep].copy()
        head[0] = True
        starts = np.flatnonzero(head)
        base = rows[s + starts] * (2 * width)
        A, B = a1[:, :, p], b1[:, :, p]

        def summed(X, Y):
            return np.add.reduceat(X * Y, starts, axis=2)

        for j in range(0, k.size, kstep):
            C, D = a2[:, j:j + kstep, q], b2[:, j:j + kstep, q]
            AC, BD, BC, AD = summed(A, C), summed(B, D), summed(B, C), summed(A, D)
            gap = m[:, None, None] - k[None, j:j + kstep, None]
            plus = m[:, None, None] + k[None, j:j + kstep, None] + base
            minus = np.abs(gap) + base
            # cos at m + k, cos at |m - k|, sin at m + k, sin at |m - k|
            cells = np.concatenate((plus, minus, plus + width, minus + width))
            w = np.concatenate((AC - BD, AC + BD, BC + AD, np.sign(gap) * (BC - AD)))
            w *= 0.5
            out += np.bincount(cells.ravel(), w.ravel(), out.size)
    return out.reshape(nrows, 2, width)


def _fourier_polys(H: np.ndarray, base_key: Expr, base_poly: Poly, g: float) -> List[Poly]:
    """The polys sum_m H[r, 0, m] cos(m g th) + H[r, 1, m] sin(m g th) over
    the base angle th, one per row r of a harmonic array: the constant
    first, then cos before sin per multiple of g, zeros left out."""
    n, _, width = H.shape
    # [A0, B0, A1, B1, ...] per row, with B0 (no sin(0)) cleared
    C = H.transpose(0, 2, 1).reshape(n, 2 * width)
    C[:, 1] = 0.0
    rows, cols = np.nonzero(C)
    values = C[rows, cols].tolist()
    cols = cols.tolist()
    monos: Dict[int, Mono] = {0: ()}
    for i in set(cols).difference(monos):
        atom = _trig_atom_for(base_key, base_poly, (i >> 1) * g, bool(i & 1))
        monos[i] = ((atom, 1.0),)
    keys = [monos[i] for i in cols]
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    out, lo = [], 0
    for hi in ends:
        out.append(dict(zip(keys[lo:hi], values[lo:hi])))
        lo = hi
    return out


def _linearize_mono(mono: Mono, coeff: float) -> Poly:
    """coeff * mono with the integer sin/cos powers over each base angle
    multiplied out onto that base's multiple-angle basis."""
    inert = []
    groups: Dict[Expr, list] = {}
    for atom, k in mono:
        info = None
        if isinstance(atom, (Sin, Cos)) and k >= 1.0 \
                and k <= TRIG_EXPAND_MAX and float(k).is_integer():
            info = _trig_info(atom)
        if info is None:
            inert.append((atom, k))
        else:
            groups.setdefault(info[1], []).append((atom, k, info))
    poly: Poly = {tuple(inert): coeff}
    zero = np.zeros(1, dtype=np.intp)
    for base_key, members in groups.items():
        ratios = tuple(info[2] for _, _, info in members)
        if len(members) > 1:
            g = _pair_angle(ratios[:1], ratios[1:])
        else:
            g = abs(ratios[0]) if members[0][1] != 1.0 else None
        if g is None:
            # a lone first power, or no common angle: keep the factors
            factor = {tuple((atom, k) for atom, k, _ in members): 1.0}
        else:
            # one harmonic row per factor, multiplied in k times
            F = _harmonics([(None, None, [(info[2], info[0], 1.0)])
                            for _, _, info in members], g)
            H = np.array([[[1.0], [0.0]]])
            for row, (_, k, _) in enumerate(members):
                for _ in range(int(k)):
                    H = _harmonic_sums(H, F, zero, zero + row, zero, 1)
            factor = _fourier_polys(H, base_key, members[0][2][3], g)[0]
        poly = _mono_products(poly, factor)
    return poly


# mono -> tuple of (mono, weight) with the input coefficient factored out;
# product monomials recur across every exponent pair of a series product, so
# the expansion is computed once per distinct monomial
_LINEARIZE_CACHE: Dict[Mono, tuple] = {}


def _linearize_poly(p: Poly) -> Poly:
    out: Poly = {}
    for mono, c in p.items():
        if _mono_has_trig_product(mono):
            expanded = _LINEARIZE_CACHE.get(mono)
            if expanded is None:
                expanded = tuple(_linearize_mono(mono, 1.0).items())
                _LINEARIZE_CACHE[mono] = expanded
            for m2, w in expanded:
                v = out.get(m2, 0.0) + c * w
                if v == 0.0:
                    out.pop(m2, None)
                else:
                    out[m2] = v
        else:
            v = out.get(mono, 0.0) + c
            if v == 0.0:
                out.pop(mono, None)
            else:
                out[mono] = v
    return out


def _atom_poly(atom: Expr, exponent: float = 1.0) -> Poly:
    exponent = _snap(exponent)
    if exponent == 0.0:
        return {(): 1.0}
    return {((atom, exponent),): 1.0}


def poly_of(e: Expr) -> Poly:
    cached = e._canon
    if cached is not None:
        return cached
    p = _poly_of(e)
    e._canon = p
    return p


def _poly_of(e: Expr) -> Poly:
    if isinstance(e, Const):
        return {} if e.value == 0.0 else {(): e.value}
    if isinstance(e, Var):
        return _atom_poly(e)
    if isinstance(e, Sum):
        out: Poly = {}
        for a in e.args:
            out = poly_add(out, poly_of(a))
        return out
    if isinstance(e, Prod):
        return _product(poly_of(a) for a in (ONE,) + e.args)
    if isinstance(e, Pow):
        return _poly_of_pow(e)
    if isinstance(e, (Sin, Cos, Exp)):
        arg = expr_of_poly(poly_of(e.arg))
        if isinstance(arg, Const):
            fn = {Sin: math.sin, Cos: math.cos, Exp: math.exp}[type(e)]
            try:
                v = fn(arg.value)
            except OverflowError:
                raise ExprError(f"{fn.__name__}({arg.value:g}) overflows a float") from None
            if isinstance(e, (Sin, Cos)) and abs(v) <= 4.0 * math.ulp(arg.value):
                # a value within the argument's own rounding noise is the zero
                # the exact argument would have produced (sin at multiples of
                # pi); keeping the dust poisons boundary traces of Fourier terms
                v = 0.0
            return {} if v == 0.0 else {(): v}
        return _atom_poly(type(e)(arg))
    raise ExprError(f"unsupported node {type(e).__name__}")


def _poly_of_pow(e: Pow) -> Poly:
    p = e.exponent
    base = poly_of(e.base)
    if p == 0.0:
        # 0^0 == 1 by the evaluation convention, so x^0 == 1 uniformly.
        return {(): 1.0}
    if not base:
        if p > 0.0:
            return {}
        # 0 to a negative power: keep an opaque node; evaluation will raise.
        return _atom_poly(Pow(ZERO, p))
    if len(base) == 1:
        (mono, c), = base.items()
        is_int = p.is_integer()
        if is_int or (len(mono) == 1 and mono[0][1] == 1.0 and c >= 0.0):
            # (c * a^k)^p -> c^p * a^(k p): safe for integer p; for a real
            # exponent only applied to a lone first-power atom with c >= 0
            # so evaluation semantics on negative bases never change.
            try:
                cp = c ** p
            except (OverflowError, ValueError):
                return _atom_poly(Pow(expr_of_poly(base), p))
            if isinstance(cp, complex) or cp != cp:
                return _atom_poly(Pow(expr_of_poly(base), p))
            return _product([{(): cp}] + [_atom_poly(atom, k * p) for atom, k in mono])
        return _atom_poly(Pow(expr_of_poly(base), p))
    if p.is_integer() and 0 < p <= EXPAND_POW_MAX:
        return _poly_pow_int(base, int(p))
    return _atom_poly(Pow(expr_of_poly(base), p))


def expr_of_poly(p: Poly) -> Expr:
    if not p:
        return ZERO
    parts = []
    for mono, c in sorted_items(p):
        factors = [atom if k == 1.0 else Pow(atom, k) for atom, k in mono]
        if not factors:
            parts.append(Const(c))
        elif c == 1.0:
            parts.append(factors[0] if len(factors) == 1 else Prod(tuple(factors)))
        else:
            parts.append(Prod((Const(c), *factors)))
    out = parts[0] if len(parts) == 1 else Sum(tuple(parts))
    out._canon = dict(p)
    return out


def simplify(e: Expr) -> Expr:
    """Rewrite to the multinomial normal form (idempotent, value-preserving)."""
    return expr_of_poly(poly_of(e))


# ---------------------------------------------------------------------------
# Calculus and evaluation.
# ---------------------------------------------------------------------------


def diff(p: Poly, var: Union[str, Var]) -> Poly:
    """Exact derivative of a normal-form poly, bit for bit the normal form of
    the tree derivative of ``expr_of_poly(p)``: monomials in ``sorted_items``
    order, each by the product rule as left-to-right ``poly_mul`` chains (the
    coefficient first unless it is 1.0), summed per monomial, then in total.
    A one-factor monomial c * a^k is its factor's cached derivative scaled by
    c, the one float operation of its chain ({c} * d is {m: c * w} with zero
    products dropped), so it takes no ``poly_mul``.
    """
    name = var.name if isinstance(var, Var) else var
    if name not in Var._ALLOWED:
        raise ExprError(f"cannot differentiate with respect to {name!r}")
    out: Poly = {}
    for mono, c in sorted_items(p):
        if len(mono) == 1:
            dj = _factor_diff(*mono[0], name)
            if c != 1.0:
                dj = {m: cw for m, w in dj.items() if (cw := c * w) != 0.0}
            poly_add_into(out, dj)
            continue
        lead = [] if c == 1.0 else [{(): c}]
        # {1} * a^k is poly_of(a^k): it linearises a trig power
        factors = [poly_mul({(): 1.0}, _atom_poly(a, k)) for a, k in mono]
        d: Poly = {}
        for j, (atom, k) in enumerate(mono):
            dj = _factor_diff(atom, k, name)
            if dj:
                # products hold no 0.0 coefficient, so adding into {} copies
                # exactly as poly_add would
                poly_add_into(d, _product(lead + factors[:j] + [dj] + factors[j + 1:]))
        poly_add_into(out, d)
    return out


def _product(polys) -> Poly:
    """Left-to-right ``poly_mul`` over a non-empty iterable, stopping at zero."""
    out = None
    for q in polys:
        out = q if out is None else poly_mul(out, q)
        if not out:
            break
    return out


# (atom, exponent, var) -> derivative of atom^exponent, and (atom, exponent,
# var, 2) -> its second derivative; the cached polys are only ever read
_FACTOR_DIFF: Dict[tuple, Poly] = {}


def _factor_diff(atom: Expr, k: float, name: str) -> Poly:
    """k * atom^(k-1) * atom', chaining through sin, cos, exp and opaque
    powers; the first call per key reads the argument's normal form and
    builds the companion atom (cos, sin or base^(p-1))."""
    key = (atom, k, name)
    got = _FACTOR_DIFF.get(key)
    if got is None:
        if k != 1.0:
            chain = [{(): k}, poly_mul({(): 1.0}, _atom_poly(atom, k - 1.0)),
                     _factor_diff(atom, 1.0, name)]
        elif isinstance(atom, Var):
            chain = [{(): 1.0} if atom.name == name else {}]
        elif isinstance(atom, Pow):
            darg = diff(poly_of(atom.base), name)
            chain = [{(): atom.exponent},
                     poly_of(Pow(atom.base, atom.exponent - 1.0)) if darg else {}, darg]
        else:
            darg = diff(poly_of(atom.arg), name)
            lead = {Sin: [_atom_poly(Cos(atom.arg))], Exp: [_atom_poly(atom)],
                    Cos: [{(): -1.0}, _atom_poly(Sin(atom.arg))]}[type(atom)]
            chain = lead + [darg]
        got = _FACTOR_DIFF[key] = _product(chain)
    return got


def factor_diff(atom: Expr, k: float, name: str, order: int) -> Poly:
    """The first or second derivative of the factor atom^k with respect to
    name, as a normal-form poly. Both are cached, the second under a key of
    its own (``diff`` of the first), so callers only read them."""
    if order not in (1, 2):
        raise ExprError(f"factor derivative order {order} unsupported (1, 2)")
    first = _factor_diff(atom, k, name)
    if order == 1:
        return first
    key = (atom, k, name, 2)
    got = _FACTOR_DIFF.get(key)
    if got is None:
        got = _FACTOR_DIFF[key] = diff(first, name)
    return got


def _pow_value(b: EnvValue, p: float):
    if p == 0.0:
        if isinstance(b, np.ndarray):
            return np.ones_like(b, dtype=float)
        return 1.0
    is_int = p.is_integer()
    if isinstance(b, np.ndarray):
        if not is_int and np.any(b < 0.0):
            raise PowerDomainError(f"negative base with fractional exponent {p}")
        if p < 0.0 and np.any(b == 0.0):
            raise PowerDomainError(f"zero base with negative exponent {p}")
        return np.power(b, p)
    b = float(b)
    if not is_int and b < 0.0:
        raise PowerDomainError(f"negative base {b} with fractional exponent {p}")
    if p < 0.0 and b == 0.0:
        raise PowerDomainError(f"zero base with negative exponent {p}")
    return b ** p


def evaluate(e: Expr, env: Mapping[str, EnvValue]) -> EnvValue:
    """Evaluate at a point (floats) or on a grid (numpy arrays broadcast)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Sum):
        total = 0.0
        for a in e.args:
            total = total + evaluate(a, env)
        return total
    if isinstance(e, Prod):
        total = 1.0
        for a in e.args:
            total = total * evaluate(a, env)
        return total
    if isinstance(e, Pow):
        return _pow_value(evaluate(e.base, env), e.exponent)
    if isinstance(e, Sin):
        v = evaluate(e.arg, env)
        return np.sin(v) if isinstance(v, np.ndarray) else math.sin(v)
    if isinstance(e, Cos):
        v = evaluate(e.arg, env)
        return np.cos(v) if isinstance(v, np.ndarray) else math.cos(v)
    if isinstance(e, Exp):
        v = evaluate(e.arg, env)
        return np.exp(v) if isinstance(v, np.ndarray) else math.exp(v)
    raise ExprError(f"unsupported node {type(e).__name__}")


def _substitute(e: Expr, name: str, repl: Expr) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return repl if e.name == name else e
    if isinstance(e, Sum):
        return Sum(tuple(_substitute(a, name, repl) for a in e.args))
    if isinstance(e, Prod):
        return Prod(tuple(_substitute(a, name, repl) for a in e.args))
    if isinstance(e, Pow):
        return Pow(_substitute(e.base, name, repl), e.exponent)
    if isinstance(e, (Sin, Cos, Exp)):
        return type(e)(_substitute(e.arg, name, repl))
    raise ExprError(f"unsupported node {type(e).__name__}")


def contains(e: Expr, name: str) -> bool:
    if isinstance(e, Var):
        return e.name == name
    if isinstance(e, (Sum, Prod)):
        return any(contains(a, name) for a in e.args)
    if isinstance(e, Pow):
        return contains(e.base, name)
    if isinstance(e, (Sin, Cos, Exp)):
        return contains(e.arg, name)
    return False


# (var, value) -> {atom: the poly of the atom with the value substituted, or
# _NO_VAR when the atom does not hold the variable}; keyed on the atom node,
# which the key keeps alive, never on a bare id a freed atom could pass on,
# and the cached polys are only ever read
_SUBSTITUTED: Dict[Tuple[str, float], Dict[Expr, object]] = {}
_NO_VAR = object()


def _substituted(table: Dict[Expr, object], atom: Expr, name: str, value: float):
    hit = table.get(atom)
    if hit is None:
        hit = table[atom] = (poly_of(_substitute(atom, name, Const(value)))
                             if contains(atom, name) else _NO_VAR)
    return hit


def poly_substitute(p: Poly, name: str, value: float) -> Poly:
    """Substitute a number for a variable, exactly rounded per output monomial.

    Everything landing on the same residual monomial is combined with
    math.fsum, so the result does not depend on dict order, and a coefficient
    multiplied by an atom value of 0 or +-1 (the boundary folds of a Fourier
    lattice) passes through exactly. Boundary traces of series with large
    cancelling coefficients stay reproducible to the last ulp, which is what
    lets corrected partial sums interpolate their Dirichlet data.
    """
    value = float(value)
    table = _SUBSTITUTED.setdefault((name, value), {})
    buckets: Dict[Mono, List[float]] = {}
    bucket_order: List[Mono] = []
    overflow: Poly = {}
    for mono, c in p.items():
        factor = c
        residual: List[Tuple[Expr, float]] = []
        exotic = False
        for atom, k in mono:
            hit = _substituted(table, atom, name, value)
            if hit is _NO_VAR:
                residual.append((atom, k))
                continue
            if not hit:
                factor = _pow_value(0.0, k) * factor
                continue
            if len(hit) == 1:
                (sm, sc), = hit.items()
                if not sm:
                    factor *= _pow_value(sc, k)
                    continue
                k_int = float(k).is_integer()
                if sc == 1.0 and (k_int or len(sm) == 1):
                    for sub_atom, sub_k in sm:
                        residual.append((sub_atom, _snap(sub_k * k)))
                    continue
            # substitution produced a shape the single-monomial algebra cannot
            # carry exactly; push the whole input monomial through the generic
            # power expansion instead
            exotic = True
            break
        if exotic:
            q: Poly = {(): c}
            for atom, k in mono:
                hit = _substituted(table, atom, name, value)
                base = atom if hit is _NO_VAR else expr_of_poly(hit)
                q = poly_mul(q, poly_of(base if k == 1.0 else Pow(base, k)))
            overflow = poly_add(overflow, q)
            continue
        if factor == 0.0:
            continue
        merged: Dict[Expr, List] = {}
        for atom, k in residual:
            slot = merged.get(atom)
            if slot is None:
                merged[atom] = [atom, k]
            else:
                slot[1] = _snap(slot[1] + k)
        key = _mono_sorted((a, k) for a, k in merged.values() if k != 0.0)
        got = buckets.get(key)
        if got is None:
            buckets[key] = [factor]
            bucket_order.append(key)
        else:
            got.append(factor)
    out: Poly = {}
    for key in bucket_order:
        s = math.fsum(buckets[key])
        if s != 0.0:
            out[key] = s
    return poly_add(out, overflow) if overflow else out


# ---------------------------------------------------------------------------
# Numeric values of polys.
# ---------------------------------------------------------------------------

# Values per block of monomial rows (8 bytes each).
ROW_BLOCK = 1 << 16


def _add_rows(running, rows: np.ndarray) -> np.ndarray:
    """running + rows[0] + rows[1] + ..., in order from +0.0 (rows alone for
    no running sum), for rows of two values or more (numpy sums one-value
    rows pairwise). A sum started from +0.0 is never -0.0, so one running
    sum continues across blocks."""
    if running is None:
        return rows.sum(axis=0, initial=0.0)
    return np.concatenate((running[None], rows)).sum(axis=0, initial=0.0)


def _room(rows: np.ndarray, n: int) -> np.ndarray:
    """rows, or a copy of them with room for at least n rows (zeros past the
    old end), doubling so a table grown row by row copies O(n) rows."""
    if n <= len(rows):
        return rows
    out = np.zeros((max(n, 2 * len(rows)), rows.shape[1]))
    out[:len(rows)] = rows
    return out


class FactorTable:
    """The rows of monomial factors (atom, k) at the points of one env, each
    built once: values, and first or second x/y derivatives on request.

    An atom is evaluated once by ``evaluate``, raised to k by ``_pow_value``
    and broadcast over the shape of the env's values (``space_shape``),
    flattened. A derivative row is its ``factor_diff`` poly summed as a
    coefficient is. A read builds the value rows of its items, monomial by
    monomial and factor by factor, before any derivative row, so a domain
    error is raised at the same factor as in a term-by-term evaluation.

    Each factor's rows are kept under one row index, given when its value
    row is built, and each monomial met is kept as the row indices of its
    factors and, once sorted, its ``sorted_items`` key (``sorted_items``),
    so a table grows with the distinct factors and monomials it reads. One
    read (``read``) serves every caller. It takes many polys at once, and a
    block of monomials gathers its factors' rows by index, so the zero check
    decides every new term of a canonicalization in one read, and a report
    reads every partial sum of a trace, with its derivatives, in one. The
    derivative rows a read lacks are built by one nested read per
    derivative key (``_derivative_rows``). A table lives as long as its env:
    the zero check keeps one for the life of the process, and a ``Grid``
    owns one for its space grid.
    """

    def __init__(self, env: Mapping[str, EnvValue]):
        self._env = env
        self.space_shape: Tuple[int, ...] = np.broadcast_shapes(
            *(np.shape(v) for v in env.values()))
        size = math.prod(self.space_shape)
        self._ones = np.ones(size)
        self._zeros = np.zeros(size)
        # the factor of each row index from 1; index 0 pads a monomial past
        # its last factor, with ones for a value and zeros for a derivative
        self._factors: List[Tuple[Expr, float]] = [None]
        self._slots: Dict[Tuple[Expr, float], int] = {}
        self._values = self._ones[None].copy()
        # (var, order) -> the derivative rows by index, and the indices built
        self._derivs: Dict[Tuple[str, int], np.ndarray] = {}
        self._built: Dict[Tuple[str, int], set] = {}
        # monomial -> the row index of each of its factors, and beside it
        # monomial -> its ``_mono_key``, computed once per table
        self._monos: Dict[Mono, Tuple[int, ...]] = {}
        self._keys: Dict[Mono, tuple] = {}
        self._atoms: Dict[Expr, np.ndarray] = {}

    def _value_row(self, atom: Expr, k: float) -> np.ndarray:
        v = self._atoms.get(atom)
        if v is None:
            v = self._atoms[atom] = np.asarray(evaluate(atom, self._env), dtype=float)
        if k != 1.0:
            v = _pow_value(v, k)
        return np.broadcast_to(v, self.space_shape).reshape(-1)

    def _slot(self, factor: Tuple[Expr, float]) -> int:
        """The row index of a factor, its value row built if missing."""
        j = self._slots.get(factor)
        if j is None:
            row = self._value_row(*factor)
            j = len(self._factors)
            self._values = _room(self._values, j + 1)
            self._values[j] = row
            self._factors.append(factor)
            self._slots[factor] = j
        return j

    def _derivative_rows(self, key: Tuple[str, int], used, skip=()):
        """(rows, failed): the rows of derivative key by index, those missing
        for the indices used built from one read of their ``factor_diff``
        polys, in the order of used; an index whose row raises one of skip is
        left unbuilt and returned in failed."""
        rows = self._derivs.get(key)
        if rows is None:
            rows = self._derivs[key] = self._zeros[None].copy()
            self._built[key] = {0}
        built = self._built[key]
        missing = [j for j in used if j not in built]
        if not missing:
            return rows, ()
        new, _, read = self.read([self.sorted_items(factor_diff(*self._factors[j], *key))
                                  for j in missing], skip=skip)
        rows = self._derivs[key] = _room(rows, max(missing) + 1)
        rows[missing] = new
        built.update(j for j, ok in zip(missing, read) if ok)
        return rows, [j for j, ok in zip(missing, read) if not ok]

    def sorted_items(self, p: Poly) -> list:
        """``sorted_items(p)``, each monomial's key computed once per table and
        kept beside its row indices, so a poly read again sorts on stored
        keys."""
        if len(p) < 2:
            return list(p.items())
        keys = self._keys
        for mono in p:
            if mono not in keys:
                keys[mono] = _mono_key(mono)
        return sorted(p.items(), key=lambda kv: keys[kv[0]])

    # the one overflow policy: an overflow is an inf or nan sample, not a warning
    @np.errstate(all="ignore")
    def read(self, item_lists, orders: Optional[Mapping[str, int]] = None, skip=()):
        """For each list of items, the sum of its monomial rows, and for each
        var in orders the sums of its derivative rows in var up to order
        orders[var], keyed (var, order): one row per list, each summed in the
        order of its items from +0.0 (zeros for no items), ``ROW_BLOCK``
        values of monomial rows at a time. Returns (sums, {key: sums},
        read): a list whose value or derivative rows raise one of ``skip``
        is left at zeros and marked False in read, and the others read as if
        alone. The table's one read.

        A monomial c * f_1 * ... * f_m is carried factor by factor with its
        derivatives by the product rule: at factor f, u'' <- u'' f + 2 u' f'
        + u f'', then u' <- u' f + u f', then u <- u f, from u = c and
        u' = u'' = 0; each factor's rows are gathered by row index. The u
        rows are the products a ``Prod`` of the same factors evaluates to, so
        items in ``sorted_items`` order sum as ``evaluate(expr_of_poly(poly))``
        does, bit for bit. Each list's rows are summed with ``_add_rows`` on
        its own slice of a block, one running sum across blocks, so a list
        sums the same bits read alone or with others.
        """
        orders = orders or {}
        monos = self._monos
        index: List[Tuple[int, ...]] = []
        coeffs: List[float] = []
        spans: List[Tuple[int, int, int]] = []      # (list, first monomial, end)
        read: List[bool] = []
        for i, items in enumerate(item_lists):
            start = len(index)
            try:
                for mono, c in items:
                    cols = monos.get(mono)
                    if cols is None:
                        cols = monos[mono] = tuple(map(self._slot, mono))
                    index.append(cols)
                    coeffs.append(c)
            except skip:
                del index[start:], coeffs[start:]
                read.append(False)
                continue
            read.append(True)
            if len(index) > start:
                spans.append((i, start, len(index)))
        keys = [(var, n) for var, top in orders.items() for n in range(1, top + 1)]
        used = list(dict.fromkeys(chain.from_iterable(index))) if keys else ()
        derivs, failed = {}, set()
        for key in keys:
            derivs[key], bad = self._derivative_rows(key, used, skip)
            failed.update(bad)
        if failed:
            # a list whose derivative rows raise one of skip is left unread
            # too; its monomials are carried in the blocks but never summed
            for i, a, b in spans:
                if not failed.isdisjoint(chain.from_iterable(index[a:b])):
                    read[i] = False
            spans = [span for span in spans if read[span[0]]]
        size = self._ones.size
        sums = np.zeros((len(read), size))
        jets = {key: np.zeros_like(sums) for key in keys}
        if not spans:
            return sums, jets, read
        # taken after the derivative rows, whose reads may add value rows
        values = self._values
        lens = np.fromiter(map(len, index), dtype=np.intp, count=len(index))
        width = max(1, int(lens.max()))
        cols = np.zeros((len(index), width), dtype=np.intp)
        cols[np.arange(width) < lens[:, None]] = np.fromiter(
            chain.from_iterable(index), dtype=np.intp, count=int(lens.sum()))
        c_all = np.array(coeffs, dtype=float)[:, None]
        block = max(1, ROW_BLOCK // size)
        first = 0   # the first span not summed to its end
        for b0 in range(0, len(index), block):
            b1 = b0 + block
            cb = cols[b0:b1]
            c = c_all[b0:b1]
            # u = c * f_1, formed in the gathered rows (a product commutes
            # bit for bit), so a block holds one copy of its rows
            u = values[cb[:, 0]]
            u *= c
            jet = {key: derivs[key][cb[:, 0]] for key in keys}
            for rows in jet.values():
                rows *= c
            for j in range(1, max(1, int(lens[b0:b1].max()))):
                col = cb[:, j]
                f = values[col]
                for var, top in orders.items():
                    d1 = derivs[var, 1][col]
                    if top == 2:
                        jet[var, 2] = (jet[var, 2] * f + 2.0 * jet[var, 1] * d1
                                       + u * derivs[var, 2][col])
                    jet[var, 1] = jet[var, 1] * f + u * d1
                u *= f
            for i, a, b in spans[first:]:
                if a >= b1:
                    break
                part = slice(max(a, b0) - b0, min(b, b1) - b0)
                resumed = a < b0
                sums[i] = _add_rows(sums[i] if resumed else None, u[part])
                for key in keys:
                    jets[key][i] = _add_rows(jets[key][i] if resumed else None,
                                             jet[key][part])
                if b <= b1:
                    first += 1
        return sums, jets, read

    def close(self, a: Poly, b: Poly, tol: float) -> bool:
        """True iff |a - b| <= tol * (1 + |a|) at every point, each poly summed
        in ``sorted_items`` order, as ``evaluate(expr_of_poly(p))`` sums it.
        A sample that is not finite is close to nothing."""
        (va, vb), _, _ = self.read((sorted_items(a), sorted_items(b)))
        # an infinite va passes the bound (inf <= inf), so it is refused apart
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.all((np.abs(va - vb) <= tol * (1.0 + np.abs(va)))
                               & np.isfinite(va)))


# ---------------------------------------------------------------------------
# Sampled comparison.
# ---------------------------------------------------------------------------

# Kronecker sequences: golden ratio for 1D, the plastic-number pair for 2D.
_GOLDEN = 0.6180339887498949
_PLASTIC_1 = 0.7548776662466927
_PLASTIC_2 = 0.5698402909980532


def _normalize_domain(domain):
    if domain is None:
        return ZERO_CHECK_DOMAIN
    lo = domain[0]
    if isinstance(lo, (tuple, list)):
        (lx, hx), (ly, hy) = domain
        return ((float(lx), float(hx)), (float(ly), float(hy)))
    lx, hx = domain
    return ((float(lx), float(hx)),)


def sample_points(domain) -> dict:
    """Deterministic quasi-random sample environment of ``SAMPLES`` points
    in a 1D/2D box (the zero-check box for None)."""
    dom = _normalize_domain(domain)
    idx = np.arange(1, SAMPLES + 1, dtype=float)
    if len(dom) == 1:
        (lx, hx), = dom
        frac = np.mod(idx * _GOLDEN, 1.0)
        return {"x": lx + frac * (hx - lx)}
    (lx, hx), (ly, hy) = dom
    fx = np.mod(idx * _PLASTIC_1, 1.0)
    fy = np.mod(idx * _PLASTIC_2, 1.0)
    return {"x": lx + fx * (hx - lx), "y": ly + fy * (hy - ly)}


def equal_sampled(a: Poly, b: Poly, domain=None, tol: float = DEFAULT_TOL) -> bool:
    """True iff |a - b| <= tol * (1 + |a|) at every sample point of domain."""
    return FactorTable(sample_points(domain)).close(a, b, tol)


# the factor rows on the zero-check points, kept for the life of the process
_ZERO_CHECK = FactorTable(sample_points(ZERO_CHECK_DOMAIN))


def is_zero_expr(p: Poly) -> bool:
    """Semi-decision for the zero function of a ``poly_of`` normal form, used
    to drop series coefficients: |p| <= 1e-12 (1 + |p|) on the zero-check
    points. A p that cannot be evaluated on the sampling box (a fractional
    power of a base negative there) is not zero: the term is kept, and
    evaluation on the problem's own domain decides. Nor is a p with a sample
    that is not finite (an infinite coefficient, or a value that overflows).
    The one-poly case of ``zero_decisions``."""
    return zero_decisions((p,))[0]


def zero_decisions(polys: Sequence[Poly]) -> List[bool]:
    """``is_zero_expr`` of each poly, deciding all the sampled ones from one
    read of the zero-check table (``FactorTable.read``), which sums each
    poly's rows as a read of it alone does. The empty poly is zero, and a
    constant is decided by |c| <= 1e-12 with no read."""
    out: List[bool] = []
    sampled = []
    for p in polys:
        if len(p) == 1 and () in p:
            out.append(abs(p[()]) <= ZERO_COEFF_TOL)
        else:
            out.append(not p)
            if p:
                sampled.append(len(out) - 1)
    if sampled:
        rows, _, read = _ZERO_CHECK.read([polys[i].items() for i in sampled],
                                         skip=PowerDomainError)
        v = np.abs(rows)
        # inf <= 1e-12 * (1 + inf) holds, so an infinite sample is refused apart
        small = np.all((v <= ZERO_COEFF_TOL * (1.0 + v)) & (v < math.inf), axis=1)
        for i, ok, zero in zip(sampled, read, small.tolist()):
            out[i] = ok and zero
    return out


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def fmt_number(v: float) -> str:
    # the magnitude test first: int() of inf or nan raises, and both render by repr
    if abs(v) < 1e15 and v == int(v):
        return str(int(v))
    return repr(v)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = fmt_number(e.value)
        return f"({s})" if v_starts_sign(s) and parent_prec >= 2 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Sum):
        parts = [_render(e.args[0], 1)]
        for a in e.args[1:]:
            s = _render(a, 1)
            if s.startswith("-"):
                parts.append(f"- {s[1:]}")
            else:
                parts.append(f"+ {s}")
        out = " ".join(parts)
        return f"({out})" if parent_prec > 1 else out
    if isinstance(e, Prod):
        args = e.args
        sign = ""
        if isinstance(args[0], Const) and args[0].value < 0 and len(args) > 1:
            sign = "-"
            args = args[1:] if args[0].value == -1.0 else (Const(-args[0].value),) + args[1:]
        out = sign + "*".join(_render(a, 2) for a in args)
        return f"({out})" if parent_prec > 2 or (sign and parent_prec == 2) else out
    if isinstance(e, Pow):
        base = _render(e.base, 3)
        exp = fmt_number(e.exponent)
        if e.exponent < 0 or not float(e.exponent).is_integer():
            exp = f"({exp})" if exp.startswith("-") or "." in exp else exp
        return f"{base}^{exp}"
    if isinstance(e, Sin):
        return f"sin({_render(e.arg, 0)})"
    if isinstance(e, Cos):
        return f"cos({_render(e.arg, 0)})"
    if isinstance(e, Exp):
        return f"exp({_render(e.arg, 0)})"
    raise ExprError(f"unsupported node {type(e).__name__}")


def v_starts_sign(s: str) -> bool:
    return s.startswith("-")
