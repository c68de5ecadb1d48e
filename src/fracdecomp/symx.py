"""Spatial expression trees: the coefficient algebra under the time series.

Node set: real constants, variables ``x``/``y`` (``t`` appears only
transiently while parsing time-dependent input), n-ary sums and products,
powers with a real exponent, and ``sin``/``cos``/``exp``. Expressions are
immutable. ``simplify`` rewrites to a multinomial normal form over
irreducible atoms (variables and transcendental nodes), so structural
equality of simplified expressions doubles as semantic equality for
polynomial content; mixtures that share no normal form are compared with
``equal_sampled`` on deterministic quasi-random points.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Tuple, Union

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
    "evaluate",
    "simplify",
    "substitute",
    "contains",
    "equal_sampled",
    "sample_points",
    "is_zero_expr",
    "poly_substitute",
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
DEFAULT_SAMPLES = 64
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


class Expr:
    """Immutable expression node with cached hash and normal form."""

    __slots__ = ("_hash", "_canon", "_skey")

    def __init__(self) -> None:
        self._hash = None
        self._canon = None
        self._skey = None

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

    def __rsub__(self, other):
        return Sum((Expr.wrap(other), Prod((Const(-1.0), self))))

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

    def __rtruediv__(self, other):
        return Prod((Expr.wrap(other), Pow(self, -1.0)))

    def __pow__(self, exponent: Scalar):
        return Pow(self, float(exponent))

    # -- identity --------------------------------------------------------

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented if not isinstance(other, Expr) else False
        if hash(self) != hash(other):
            return False
        return self._fields() == other._fields()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((type(self).__name__,) + self._fields())
            self._hash = h
        return h

    def __str__(self) -> str:
        return _render(self, 0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Scalar):
        super().__init__()
        self.value = float(value)

    def _fields(self):
        return (self.value,)


class Var(Expr):
    __slots__ = ("name",)

    _ALLOWED = ("x", "y", "t")

    def __init__(self, name: str):
        super().__init__()
        if name not in self._ALLOWED:
            raise ExprError(f"unknown variable {name!r}; expected one of {self._ALLOWED}")
        self.name = name

    def _fields(self):
        return (self.name,)


class Sum(Expr):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        super().__init__()
        if not args:
            raise ExprError("empty sum")
        self.args = tuple(args)

    def _fields(self):
        return self.args


class Prod(Expr):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        super().__init__()
        if not args:
            raise ExprError("empty product")
        self.args = tuple(args)

    def _fields(self):
        return self.args


class Pow(Expr):
    """base raised to a fixed real exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Scalar):
        super().__init__()
        self.base = base
        self.exponent = _snap(float(exponent))

    def _fields(self):
        return (self.base, self.exponent)


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        super().__init__()
        self.arg = arg

    def _fields(self):
        return (self.arg,)


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


# Structurally equal atoms are folded to one representative so that monomial
# merges and dict lookups run on object identity.
_ATOM_INTERN: Dict[Expr, Expr] = {}


def _intern_atom(atom: Expr) -> Expr:
    found = _ATOM_INTERN.get(atom)
    if found is None:
        _ATOM_INTERN[atom] = atom
        return atom
    return found


def _mono_key(mono: Mono):
    return (math.fsum(k for _, k in mono), tuple((_skey_of(a), k) for a, k in mono))


def _mono_sorted(items) -> Mono:
    return tuple(sorted(items, key=lambda ak: _skey_of(ak[0])))


def poly_add(p1: Poly, p2: Poly) -> Poly:
    if not p1:
        return dict(p2)
    out = dict(p1)
    for mono, c in p2.items():
        s = out.get(mono, 0.0) + c
        if s == 0.0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def poly_scale(p: Poly, k: float) -> Poly:
    if k == 0.0:
        return {}
    return {m: c * k for m, c in p.items()}


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    # both sides are sorted by atom sort key with interned atoms, so this is
    # a linear merge deciding collisions by object identity
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
    if p1 and p2:
        fast = _fourier_mul_fast(p1, p2)
        if fast is not None:
            return fast
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
    for mono in out:
        if _mono_has_trig_product(mono):
            return _linearize_poly(out)
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
# trig degree; on the multiple-angle basis it stays linear. The rewrite is
# exact up to one rounding per combination coefficient (dyadic halves).

TRIG_RATIO_TOL = 1e-9
TRIG_EXPAND_MAX = 512
# Multiples past this are treated as incommensurate: a genuine common angle
# this fine is indistinguishable from Euclid bottoming out on noise.
TRIG_MULTIPLE_MAX = 4096

_TRIG_UNSET = object()
# id(atom) -> (is_sin, base_key, ratio, base_poly) or None; atoms are interned
_TRIG_INFO: Dict[int, object] = {}
# (base_key, angle_scale, is_sin) -> interned multiple-angle atom
_TRIG_ATOMS: Dict[tuple, Expr] = {}


def _trig_info(atom: Expr):
    """Base angle of a sin/cos atom: its argument normalized so the leading
    coefficient is one, plus the ratio that recovers the argument."""
    got = _TRIG_INFO.get(id(atom), _TRIG_UNSET)
    if got is not _TRIG_UNSET:
        return got
    p = poly_of(atom.arg)
    info = None
    if p:
        items = sorted(p.items(), key=lambda kv: _mono_key(kv[0]))
        c0 = items[0][1]
        base = {m: c / c0 for m, c in p.items()}
        info = (isinstance(atom, Sin), expr_of_poly(base), c0, base)
    _TRIG_INFO[id(atom)] = info
    return info


def _mono_has_trig_product(mono: Mono) -> bool:
    first = None
    seen = None
    for atom, k in mono:
        if not isinstance(atom, (Sin, Cos)):
            continue
        if k >= 2.0 and k <= TRIG_EXPAND_MAX and float(k).is_integer():
            return True
        info = _trig_info(atom)
        if info is None:
            continue
        h = hash(info[1])
        if first is None:
            first = h
        elif h == first:
            return True
        else:
            if seen is None:
                seen = {first}
            if h in seen:
                return True
            seen.add(h)
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


def _common_angle(ratios):
    """Angle unit g with every ratio a nonzero integer multiple, or None."""
    g = abs(ratios[0])
    for r in ratios[1:]:
        g = _fgcd(g, r)
    # re-anchor g on the smallest ratio so exact inputs reproduce exactly
    rmin = min(abs(r) for r in ratios)
    q = round(rmin / g)
    if q >= 1 and abs(rmin - q * g) <= TRIG_RATIO_TOL * (rmin + g):
        g = rmin / q
    for r in ratios:
        mi = round(r / g)
        if mi == 0 or abs(mi) > TRIG_MULTIPLE_MAX \
                or abs(r - mi * g) > TRIG_RATIO_TOL * (abs(r) + g):
            return None
    return g


def _fourier_step(F: dict, k: int, is_sin: bool) -> dict:
    """Multiply sum_m c_m cos(m th) + s_m sin(m th) by cos(k th) or sin(k th)."""
    out: dict = {}

    def bump(m: int, dc: float, ds: float) -> None:
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


def _trig_atom_for(base_key: Expr, base_poly: Poly, angle_scale: float,
                   want_sin: bool) -> Expr:
    key = (base_key, angle_scale, want_sin)
    atom = _TRIG_ATOMS.get(key)
    if atom is None:
        arg = expr_of_poly(poly_scale(base_poly, angle_scale))
        atom = _intern_atom(Sin(arg) if want_sin else Cos(arg))
        _TRIG_ATOMS[key] = atom
    return atom


def _merge_term(p: Poly, mono: Mono, c: float) -> None:
    v = p.get(mono, 0.0) + c
    if v == 0.0:
        p.pop(mono, None)
    else:
        p[mono] = v


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
        elif info[1] is not base_key and info[1] != base_key:
            return None
        items.append((info[2], info[0], c))
    if base_key is None:
        return None
    return base_key, base_poly, items


def _fourier_vectors(items, g: float):
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


def _fourier_mul_fast(p1: Poly, p2: Poly):
    """Product of two single-base Fourier polys via convolutions, else None.

    This is the same product-to-sum rewrite as ``_linearize_mono``, done on
    coefficient vectors so a series product does not grind through millions
    of monomial pairs.
    """
    f1 = _fourier_poly_items(p1)
    if f1 is None:
        return None
    f2 = _fourier_poly_items(p2)
    if f2 is None:
        return None
    if f1[0] is not f2[0] and f1[0] != f2[0]:
        return None
    base_key, base_poly, _ = f1
    ratios = [r for r, _, _ in f1[2] if r is not None]
    ratios += [r for r, _, _ in f2[2] if r is not None]
    if not ratios:
        return None
    g = _common_angle(ratios)
    if g is None:
        return None
    a1, b1 = _fourier_vectors(f1[2], g)
    a2, b2 = _fourier_vectors(f2[2], g)
    off = len(a2) - 1
    L = len(a1) + len(a2) - 1

    def plus_part(X):
        # P[n] = X at m - k = n
        out = np.zeros(L)
        out[:L - off] = X[off:]
        return out

    def minus_part(X):
        # Q[n] = X at m - k = -n
        out = np.zeros(L)
        out[:off + 1] = X[off::-1]
        return out

    def fold_cos(X):
        F = plus_part(X) + minus_part(X)
        F[0] = X[off]
        return F

    def fold_sin(X):
        return plus_part(X) - minus_part(X)

    def cross(u, v):
        return np.convolve(u, v[::-1])

    A = 0.5 * (np.convolve(a1, a2) + fold_cos(cross(a1, a2)))
    A += 0.5 * (fold_cos(cross(b1, b2)) - np.convolve(b1, b2))
    B = 0.5 * (np.convolve(b1, a2) + fold_sin(cross(b1, a2)))
    B += 0.5 * (np.convolve(a1, b2) - fold_sin(cross(a1, b2)))

    out: Poly = {}
    c0 = float(A[0])
    if c0 != 0.0:
        out[()] = c0
    for m in range(1, L):
        am = float(A[m])
        if am != 0.0:
            atom = _trig_atom_for(base_key, base_poly, m * g, False)
            out[((atom, 1.0),)] = am
        bm = float(B[m])
        if bm != 0.0:
            atom = _trig_atom_for(base_key, base_poly, m * g, True)
            out[((atom, 1.0),)] = bm
    return out


def _linearize_mono(mono: Mono, coeff: float) -> Poly:
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
            groups.setdefault(info[1], []).append((atom, int(k), info))
    poly: Poly = {tuple(inert): coeff}
    for base_key, members in groups.items():
        if len(members) == 1 and members[0][1] == 1:
            a = members[0][0]
            poly = {_mono_mul(m, ((a, 1.0),)): c for m, c in poly.items()}
            continue
        g = _common_angle([info[2] for _, _, info in members])
        if g is None:
            # not integer multiples of a common angle; keep the product opaque
            for atom, e, _ in members:
                poly = {_mono_mul(m, ((atom, float(e)),)): c for m, c in poly.items()}
            continue
        mults = [(info[0], round(info[2] / g), e) for _, e, info in members]
        F = {0: (1.0, 0.0)}
        for is_sin, mi, e in mults:
            for _ in range(e):
                F = _fourier_step(F, mi, is_sin)
        base_poly = members[0][2][3]
        new_poly: Poly = {}
        for m0, c0 in poly.items():
            for m, (cc, ss) in F.items():
                if m == 0:
                    if cc != 0.0:
                        _merge_term(new_poly, m0, c0 * cc)
                    continue
                scale = m * g
                if cc != 0.0:
                    a = _trig_atom_for(base_key, base_poly, scale, False)
                    _merge_term(new_poly, _mono_mul(m0, ((a, 1.0),)), c0 * cc)
                if ss != 0.0:
                    a = _trig_atom_for(base_key, base_poly, scale, True)
                    _merge_term(new_poly, _mono_mul(m0, ((a, 1.0),)), c0 * ss)
        poly = new_poly
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
    return {((_intern_atom(atom), exponent),): 1.0}


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
        out = {(): 1.0}
        for a in e.args:
            out = poly_mul(out, poly_of(a))
            if not out:
                return out
        return out
    if isinstance(e, Pow):
        return _poly_of_pow(e)
    if isinstance(e, (Sin, Cos, Exp)):
        arg = expr_of_poly(poly_of(e.arg))
        if isinstance(arg, Const):
            fn = {Sin: math.sin, Cos: math.cos, Exp: math.exp}[type(e)]
            v = fn(arg.value)
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
            out_mono: Poly = {(): cp}
            for atom, k in mono:
                out_mono = poly_mul(out_mono, _atom_poly(atom, k * p))
            return out_mono
        return _atom_poly(Pow(expr_of_poly(base), p))
    if p.is_integer() and 0 < p <= EXPAND_POW_MAX:
        return _poly_pow_int(base, int(p))
    return _atom_poly(Pow(expr_of_poly(base), p))


def expr_of_poly(p: Poly) -> Expr:
    if not p:
        return ZERO
    parts = []
    for mono, c in sorted(p.items(), key=lambda kv: _mono_key(kv[0])):
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


def diff(e: Expr, var: Union[str, Var]) -> Expr:
    """Exact symbolic derivative, returned in normal form."""
    name = var.name if isinstance(var, Var) else var
    if name not in Var._ALLOWED:
        raise ExprError(f"cannot differentiate with respect to {name!r}")
    return simplify(_diff(e, name))


def _diff(e: Expr, name: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_diff(a, name) for a in e.args))
    if isinstance(e, Prod):
        parts = []
        for i, a in enumerate(e.args):
            da = _diff(a, name)
            parts.append(Prod(e.args[:i] + (da,) + e.args[i + 1:]))
        return Sum(tuple(parts))
    if isinstance(e, Pow):
        if e.exponent == 0.0:
            return ZERO
        return Prod((Const(e.exponent), Pow(e.base, e.exponent - 1.0), _diff(e.base, name)))
    if isinstance(e, Sin):
        return Prod((Cos(e.arg), _diff(e.arg, name)))
    if isinstance(e, Cos):
        return Prod((Const(-1.0), Sin(e.arg), _diff(e.arg, name)))
    if isinstance(e, Exp):
        return Prod((e, _diff(e.arg, name)))
    raise ExprError(f"unsupported node {type(e).__name__}")


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


def substitute(e: Expr, name: str, value: Union[Expr, Scalar]) -> Expr:
    """Replace a variable and return the normal form of the result."""
    repl = Expr.wrap(value)
    return simplify(_substitute(e, name, repl))


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


def poly_substitute(p: Poly, name: str, value: float) -> Poly:
    """Substitute a number for a variable, exactly rounded per output monomial.

    Everything landing on the same residual monomial is combined with
    math.fsum, so the result does not depend on dict order, and a coefficient
    multiplied by an atom value of 0 or +-1 (the boundary folds of a Fourier
    lattice) passes through exactly. Boundary traces of series with large
    cancelling coefficients stay reproducible to the last ulp, which is what
    lets corrected partial sums interpolate their Dirichlet data.
    """
    repl = Const(float(value))
    cache: Dict[int, object] = {}
    buckets: Dict[Mono, List[float]] = {}
    bucket_order: List[Mono] = []
    overflow: Poly = {}
    for mono, c in p.items():
        factor = c
        residual: List[Tuple[Expr, float]] = []
        exotic = False
        for atom, k in mono:
            hit = cache.get(id(atom))
            if hit is None:
                hit = poly_of(_substitute(atom, name, repl)) \
                    if contains(atom, name) else atom
                cache[id(atom)] = hit
            if hit is atom:
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
                hit = cache.get(id(atom))
                base = atom if hit is atom else expr_of_poly(hit)
                q = poly_mul(q, poly_of(base if k == 1.0 else Pow(base, k)))
            overflow = poly_add(overflow, q)
            continue
        if factor == 0.0:
            continue
        merged: Dict[int, List] = {}
        for atom, k in residual:
            slot = merged.get(id(atom))
            if slot is None:
                merged[id(atom)] = [atom, k]
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


def sample_points(domain, n_samples: int = DEFAULT_SAMPLES) -> dict:
    """Deterministic quasi-random sample environment for a 1D/2D box."""
    dom = _normalize_domain(domain)
    idx = np.arange(1, n_samples + 1, dtype=float)
    if len(dom) == 1:
        (lx, hx), = dom
        frac = np.mod(idx * _GOLDEN, 1.0)
        return {"x": lx + frac * (hx - lx)}
    (lx, hx), (ly, hy) = dom
    fx = np.mod(idx * _PLASTIC_1, 1.0)
    fy = np.mod(idx * _PLASTIC_2, 1.0)
    return {"x": lx + fx * (hx - lx), "y": ly + fy * (hy - ly)}


def equal_sampled(a: Expr, b: Expr, domain=None, n_samples: int = DEFAULT_SAMPLES,
                  tol: float = DEFAULT_TOL) -> bool:
    """True iff |a - b| <= tol * (1 + |a|) at every sample point."""
    env = sample_points(domain, n_samples)
    va = np.asarray(evaluate(a, env), dtype=float)
    vb = np.asarray(evaluate(b, env), dtype=float)
    return bool(np.all(np.abs(va - vb) <= tol * (1.0 + np.abs(va))))


_ZERO_ENV = None
_ATOM_SAMPLES: Dict[int, np.ndarray] = {}   # id(atom) -> values; atoms are interned


def _atom_sample_values(atom: Expr) -> np.ndarray:
    arr = _ATOM_SAMPLES.get(id(atom))
    if arr is None:
        global _ZERO_ENV
        if _ZERO_ENV is None:
            _ZERO_ENV = sample_points(ZERO_CHECK_DOMAIN, DEFAULT_SAMPLES)
        arr = np.asarray(evaluate(atom, _ZERO_ENV), dtype=float)
        if arr.shape != (DEFAULT_SAMPLES,):
            arr = np.full(DEFAULT_SAMPLES, float(arr))
        _ATOM_SAMPLES[id(atom)] = arr
    return arr


def is_zero_expr(p: Poly, tol: float = ZERO_COEFF_TOL) -> bool:
    """Semi-decision for the zero function of a ``poly_of`` normal form, used
    to drop series coefficients."""
    if not p:
        return True
    if len(p) == 1 and () in p:
        return abs(p[()]) <= tol
    v = np.zeros(DEFAULT_SAMPLES)
    for mono, c in p.items():
        mv = np.full(DEFAULT_SAMPLES, c)
        for atom, k in mono:
            mv = mv * _pow_value(_atom_sample_values(atom), k)
        v += mv
    return bool(np.all(np.abs(v) <= tol * (1.0 + np.abs(v))))


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
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
