"""Grid evaluation, sampled reads, boundary substitution and common angles
on polys, against the routes they replaced.

The old routes are kept here as references: grid evaluation and sampled
comparison through ``evaluate(expr_of_poly(p))`` (``equal_sampled`` and
``series_equal`` as they stood on expression trees), ``poly_substitute``
with a table of its own per call keyed on atom ids, and the common angle of
the concatenated ratio tuples of a pair (``_reference_common_angle``, which
other tests import). Every comparison is bit for bit, up to the sign of a
zero where a tree does not sum a lone monomial.
"""

import math
import random

import numpy as np
import pytest

from fracdecomp import evaluation, fracterm, symx
from fracdecomp.decomp import adomian_polys, ladm_solve, mldm_solve
from fracdecomp.evaluation import default_grid, evaluate_series_grid, make_grid
from fracdecomp.fracterm import Series
from fracdecomp.grammar import parse_series
from fracdecomp.problems import MODES, builtin, load_problem_file, manufacture_source
from fracdecomp.symx import (
    Const,
    Cos,
    Exp,
    PowerDomainError,
    Pow,
    Sin,
    Var,
    evaluate,
    expr_of_poly,
    poly_of,
    poly_substitute,
)
from test_evaluation import TWO_D_FILE

X = Var("x")
Y = Var("y")
PIDS = ["p1", "p2", "p3", "p4", "p5", "p6", "p7"]


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------


def _reference_grid(series, grid):
    # evaluate_series_grid as it stood: one expression tree per term
    if grid.ys is None:
        env = {"x": grid.xs}
        space_shape = (grid.xs.size,)
    else:
        env = {"x": grid.xs[:, None], "y": grid.ys[None, :]}
        space_shape = (grid.xs.size, grid.ys.size)
    out = np.zeros(space_shape + (grid.ts.size,))
    for term in series.terms:
        coeff = np.broadcast_to(np.asarray(evaluate(expr_of_poly(term.poly), env),
                                           dtype=float), space_shape)
        tpow = np.power(grid.ts, term.mu)
        out += coeff[..., None] * tpow
    return out


def _assert_grid_matches(series, grid):
    got = evaluate_series_grid(series, grid)
    want = _reference_grid(series, grid)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _solver_series(pid):
    # partial sums, and for mldm N(S*_n) as its difference polynomials use it
    out = []
    for alpha in (0.5, 0.75, 1.0):
        spec = builtin(pid, alpha)
        for solve in (ladm_solve, mldm_solve):
            for rec in solve(spec, 3).records:
                out.append((spec, rec.partial_sum))
                if solve is mldm_solve and not spec.nonlinear.is_empty():
                    out.append((spec, spec.nonlinear.apply(rec.partial_sum)))
    return out


@pytest.mark.parametrize("pid", PIDS)
def test_grid_matches_tree_evaluation_on_solver_series(pid):
    series = _solver_series(pid)
    assert len(series) >= 24
    for spec, s in series:
        _assert_grid_matches(s, default_grid(spec))


def test_grid_matches_on_a_non_square_2d_grid():
    spec = builtin("p2", 0.75)
    grid = make_grid(spec.domain, spec.domain_y, nx=7, ny=5, nt=4)
    for rec in mldm_solve(spec, 3).records:
        _assert_grid_matches(rec.partial_sum, grid)


def test_grid_row_blocks_keep_every_bit(monkeypatch):
    # N(S*_3) of p7 has terms of dozens of monomials; blocks of 1, 3 and 50
    # rows must continue one running sum, not start new ones
    spec = builtin("p7", 0.75)
    applied = spec.nonlinear.apply(mldm_solve(spec, 3).records[-1].partial_sum)
    assert max(len(t.poly) for t in applied.terms) > 50
    grid = default_grid(spec)
    want = _reference_grid(applied, grid).tobytes()
    for rows in (1, 3, 50):
        monkeypatch.setattr(symx, "ROW_BLOCK", rows * grid.xs.size)
        assert evaluate_series_grid(applied, grid).tobytes() == want


def _reference_derivative_grids(series, keys, grid):
    # _derivative_grids as it stood: a factor-row table with derivative row
    # tables on top, read through a block loop of its own
    if grid.ys is None:
        env = {"x": grid.xs}
    else:
        env = {"x": grid.xs[:, None], "y": grid.ys[None, :]}
    space = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    size = math.prod(space)
    ones, zeros = np.ones(size), np.zeros(size)
    block = max(1, symx.ROW_BLOCK // size)
    values, derivs = {}, {}

    def fill(items):
        for mono, _ in items:
            for factor in mono:
                if factor not in values:
                    atom, k = factor
                    v = np.asarray(evaluate(atom, env), dtype=float)
                    if k != 1.0:
                        v = symx._pow_value(v, k)
                    values[factor] = np.broadcast_to(v, space).reshape(size)

    def column(chunk, table, j, pad):
        return np.array([table[mono[j]] if j < len(mono) else pad for mono, _ in chunk])

    def add_rows(running, rows):
        return np.concatenate((running[None], rows)).sum(axis=0, initial=0.0)

    def poly_row(items):
        fill(items)
        total = None
        for i in range(0, len(items), block):
            chunk = items[i:i + block]
            width = max(1, max(len(mono) for mono, _ in chunk))
            v = np.fromiter((c for _, c in chunk), float, len(chunk))[:, None] * column(
                chunk, values, 0, ones)
            for j in range(1, width):
                v *= column(chunk, values, j, ones)
            total = v.sum(axis=0, initial=0.0) if total is None else add_rows(total, v)
        return zeros if total is None else total

    def fill_derivs(items, var, order):
        table = derivs.setdefault((var, order), {})
        for mono, _ in items:
            for factor in mono:
                if factor not in table:
                    p = symx.factor_diff(factor[0], factor[1], var, order)
                    table[factor] = poly_row(symx.sorted_items(p)) if p else zeros
        return table

    orders = {}
    for order, var in keys:
        if order:
            orders[var] = max(orders.get(var, 0), order)
    shape = space + (grid.ts.size,)
    value = np.zeros(shape)
    grids = {(var, n): np.zeros(shape) for var, top in orders.items()
             for n in range(1, top + 1)}
    for term in series.terms:
        items = symx.sorted_items(term.poly)
        fill(items)
        tables = {key: fill_derivs(items, *key) for key in grids}
        coeff = zeros
        sums = dict.fromkeys(grids, zeros)
        for i in range(0, len(items), block):
            chunk = items[i:i + block]
            width = max(1, max(len(mono) for mono, _ in chunk))
            c = np.fromiter((c for _, c in chunk), float, len(chunk))[:, None]
            u = c * column(chunk, values, 0, ones)
            jet = {key: c * column(chunk, table, 0, zeros) for key, table in tables.items()}
            for j in range(1, width):
                f = column(chunk, values, j, ones)
                for var, top in orders.items():
                    d1 = column(chunk, tables[var, 1], j, zeros)
                    if top == 2:
                        d2 = column(chunk, tables[var, 2], j, zeros)
                        jet[var, 2] = jet[var, 2] * f + 2.0 * jet[var, 1] * d1 + u * d2
                    jet[var, 1] = jet[var, 1] * f + u * d1
                u *= f
            coeff = add_rows(coeff, u)
            for key in grids:
                sums[key] = add_rows(sums[key], jet[key])
        tpow = np.power(grid.ts, term.mu)
        value += coeff.reshape(space)[..., None] * tpow
        for key, grid_values in grids.items():
            grid_values += sums[key].reshape(space)[..., None] * tpow
    return {(order, var): value if order == 0 else grids[var, order] for order, var in keys}


def _assert_derivative_grids_match(series, grid):
    variables = ("x",) if grid.ys is None else ("x", "y")
    # every derivative, and first derivatives alone
    for top in (2, 1):
        keys = [(order, var) for var in variables for order in range(top + 1)]
        with np.errstate(all="ignore"):
            want = _reference_derivative_grids(series, keys, grid)
        got = evaluation._derivative_grids(series, keys, grid)
        assert list(got) == keys
        for key in keys:
            assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("pid", PIDS)
def test_derivative_grids_match_the_block_loop_they_replaced(pid):
    for alpha in (0.5, 0.75, 1.0):
        spec = builtin(pid, alpha)
        grid = default_grid(spec)
        for solve in (ladm_solve, mldm_solve):
            for rec in solve(spec, 3).records:
                _assert_derivative_grids_match(rec.partial_sum, grid)


def test_derivative_grids_match_the_block_loop_on_a_2d_file(tmp_path):
    path = tmp_path / "cubic2d.txt"
    path.write_text(TWO_D_FILE)
    for alpha in (0.5, 1.0):
        spec = load_problem_file(path, alpha)
        grid = default_grid(spec)
        for solve in (ladm_solve, mldm_solve):
            for rec in solve(spec, 1).records:
                _assert_derivative_grids_match(rec.partial_sum, grid)


def test_derivative_grids_match_the_block_loop_on_products_of_factors():
    # monomials of several factors in one variable use the cross terms
    g1 = make_grid((0.0, 1.0), nx=17, nt=5)
    _assert_derivative_grids_match(parse_series(
        "x*sin(x)*t + x^2*exp(x)*cos(3*x)*t^0.5 + (1 + x)^0.5*x^3*t^2 + 2", None), g1)
    g2 = make_grid((0.0, 1.0), (0.5, 2.0), nx=9, ny=7, nt=4)
    _assert_derivative_grids_match(parse_series(
        "x*y*sin(x + y)*t + exp(x*y)*y^2*t^0.75 + cos(x)*sin(2*y)", None), g2)


def test_derivative_grid_blocks_keep_every_bit(monkeypatch):
    # blocks of 1 and 3 monomials must continue every running sum, the
    # derivative sums as well as the values
    spec = builtin("p7", 0.75)
    partial = mldm_solve(spec, 3).records[-1].partial_sum
    assert max(len(t.poly) for t in partial.terms) > 3
    grid = default_grid(spec)
    for rows in (1, 3):
        monkeypatch.setattr(symx, "ROW_BLOCK", rows * grid.xs.size)
        _assert_derivative_grids_match(partial, grid)


# ---------------------------------------------------------------------------
# sampled reads
# ---------------------------------------------------------------------------


def _reference_equal_sampled(a, b, domain, tol):
    # equal_sampled as it stood: both expression trees evaluated
    env = symx.sample_points(domain)
    va = np.asarray(evaluate(a, env), dtype=float)
    vb = np.asarray(evaluate(b, env), dtype=float)
    return bool(np.all(np.abs(va - vb) <= tol * (1.0 + np.abs(va))))


def _reference_series_equal(a, b, domain, tol):
    # series_equal as it stood: term coefficients read as trees (.coeff)
    ta, tb = list(a.terms), list(b.terms)
    i = j = 0
    while i < len(ta) or j < len(tb):
        if i < len(ta) and j < len(tb) and abs(ta[i].mu - tb[j].mu) <= 1e-12:
            if not _reference_equal_sampled(ta[i].coeff, tb[j].coeff, domain, tol):
                return False
            i += 1
            j += 1
        elif j >= len(tb) or (i < len(ta) and ta[i].mu < tb[j].mu):
            if not _reference_equal_sampled(ta[i].coeff, Const(0.0), domain, tol):
                return False
            i += 1
        else:
            if not _reference_equal_sampled(tb[j].coeff, Const(0.0), domain, tol):
                return False
            j += 1
    return True


def _reference_zero_samples(p):
    # the zero check's values as they stood: each atom evaluated on the
    # zero-check points, monomials added in dict order
    env = symx.sample_points(symx.ZERO_CHECK_DOMAIN)
    v = np.zeros(symx.SAMPLES)
    for mono, c in p.items():
        mv = np.full(symx.SAMPLES, c)
        for atom, k in mono:
            mv = mv * symx._pow_value(np.asarray(evaluate(atom, env), dtype=float), k)
        v += mv
    return v


def _sampled_corpus(pid):
    """(spec, [(name, series)]) per builtin spec at alpha 0.5, 0.75 and 1 in
    both modes: h, exact, f, the faces, and for both solvers at n = 3 each
    partial sum and decomposition polynomial."""
    out = []
    for mode in MODES:
        for alpha in (0.5, 0.75, 1.0):
            spec = builtin(pid, alpha, mode)
            named = [("h", spec.h), ("exact", spec.exact), ("f", spec.f)]
            named += [(key, face.g) for key, face in spec.bd.items()]
            for solve in (ladm_solve, mldm_solve):
                for rec in solve(spec, 3).records:
                    named.append((f"{solve.__name__} S{rec.n}", rec.partial_sum))
                    if rec.poly is not None:
                        named.append((f"{solve.__name__} poly{rec.n}", rec.poly))
            out.append((spec, named))
    return out


@pytest.mark.parametrize("pid", PIDS)
def test_sampled_reads_match_tree_evaluation_on_the_corpus(pid):
    polys = 0
    decisions = set()
    for spec, named in _sampled_corpus(pid):
        dom = spec.sample_domain()
        env = symx.sample_points(dom)
        table = symx.FactorTable(env)
        for name, s in named:
            for term in s.terms:
                (got,), _ = table.read((symx.sorted_items(term.poly),))
                want = np.broadcast_to(np.asarray(
                    evaluate(expr_of_poly(term.poly), env), dtype=float), got.shape)
                where = (spec.pid, spec.mode, spec.alpha, name, term.mu)
                assert np.abs(got).tobytes() == np.abs(want).tobytes(), where
                (zero,), _ = symx._ZERO_CHECK.read((term.poly.items(),))
                assert zero.tobytes() == _reference_zero_samples(term.poly).tobytes(), where
                polys += 1
        # the decisions of the consistency audit, and of each partial sum
        # against the exact solution and the sum before it
        exact = spec.exact
        pairs = [(spec.h, manufacture_source(exact, spec.linear, spec.nonlinear,
                                             spec.alpha)),
                 (spec.f, fracterm.initial_value(exact))]
        pairs += [(g, fracterm.series_substitute(exact, var, at))
                  for var, at, g in spec.bd.values()]
        sums = [s for name, s in named if " S" in name]
        pairs += [(s, exact) for s in sums] + list(zip(sums[1:], sums))
        for a, b in pairs:
            for tol in (1e-12, 1e-10, 1e-9, 1e-6):
                want = _reference_series_equal(a, b, dom, tol)
                assert fracterm.series_equal(a, b, dom, tol) == want
                decisions.add(want)
    assert polys >= 100
    assert decisions == {True, False}


# ---------------------------------------------------------------------------
# monomial order
# ---------------------------------------------------------------------------


def _reference_sorted_items(p):
    # sorted_items as it stood: each atom's nested sort key in the key
    def mono_key(mono):
        return (math.fsum(k for _, k in mono), tuple((symx._skey_of(a), k) for a, k in mono))
    return sorted(p.items(), key=lambda kv: mono_key(kv[0]))


def _assert_same_order(p):
    got, want = symx.sorted_items(p), _reference_sorted_items(p)
    assert [m for m, _ in got] == [m for m, _ in want]
    assert all(g is w for (_, g), (_, w) in zip(got, want))


@pytest.mark.parametrize("pid", PIDS)
def test_sorted_items_keeps_the_order_on_solver_polys(pid):
    polys = [t.poly for _, s in _solver_series(pid) for t in s.terms]
    assert sum(map(len, polys)) > 40
    for p in polys:
        _assert_same_order(p)
        _assert_same_order(dict(reversed(list(p.items()))))


def test_sorted_items_keeps_the_order_on_random_polys():
    rng = random.Random(4471)
    for _ in range(300):
        two_d = rng.random() < 0.5
        p = poly_of(_random_coeff(rng, two_d, rng.choice([1, 2, 5, 12, 30])))
        _assert_same_order(p)
        _assert_same_order(dict(reversed(list(p.items()))))
    # hand-built monomials that share one sin(y) atom
    sin_y = Sin(Y)
    p = {((X, 1.0), (sin_y, 1.0)): 1.0, ((sin_y, 2.0),): 2.0, ((sin_y, 1.0),): 3.0,
         ((X, 2.0),): 4.0, ((X, 1.0), (sin_y, 1.0), (Cos(Y), 1.0)): 5.0,
         # a tie on the first factor is broken by the second
         ((sin_y, 1.0), (Exp(Y), 1.0)): 6.0, ((sin_y, 1.0), (Cos(Y), 1.0)): 7.0}
    _assert_same_order(p)
    _assert_same_order(dict(reversed(list(p.items()))))


def _random_factor(rng, two_d):
    picks = [
        lambda: X,
        lambda: Pow(X, 0.75),
        lambda: Pow(X, float(rng.randint(2, 4))),
        lambda: Pow(Const(1.0) + X, 0.5),                     # opaque power
        lambda: Exp(Const(rng.choice([1.0, -0.5])) * X),
        lambda: Sin(Const(math.pi * rng.randint(1, 3)) * X),
        lambda: Cos(Const(0.5 * rng.randint(1, 4)) * X),
    ]
    if two_d:
        picks += [lambda: Y, lambda: Pow(Y, 0.75), lambda: Sin(Const(math.pi) * Y),
                  lambda: Exp(X * Y)]
    return rng.choice(picks)()


def _random_coeff(rng, two_d, monomials):
    e = Const(0.0)
    for _ in range(monomials):
        m = Const(rng.choice([1.0, -1.0, 2.5, rng.uniform(-3.0, 3.0), 1e-9]))
        for _ in range(rng.randint(0, 3)):
            m = m * _random_factor(rng, two_d)
        e = e + m
    return e


@pytest.mark.parametrize("two_d", [False, True])
def test_grid_matches_tree_evaluation_on_random_series(two_d):
    rng = random.Random(7130 + two_d)
    if two_d:
        grid = make_grid((0.0, 1.0), (0.0, 2.0), nx=6, ny=4, nt=5, tmax=1.5)
    else:
        grid = make_grid((0.0, 2.0), nx=9, nt=5, tmax=1.5)
    for _ in range(60):
        pairs = [(rng.choice([0.0, 0.5, 1.0, 1.75, rng.uniform(0.0, 9.0)]),
                  _random_coeff(rng, two_d, rng.choice([1, 1, 2, 5, 12])))
                 for _ in range(rng.randint(1, 4))]
        _assert_grid_matches(Series(pairs), grid)
    # constants alone, and one-monomial terms with coefficient 1 and -1
    for e in (Const(3.5), X, -X, Const(-1.0) * Sin(Const(math.pi) * X),
              Pow(Const(1.0) + X, 0.5)):
        _assert_grid_matches(Series([(0.5, e)]), grid)


def test_grid_raises_the_same_domain_error():
    grid = make_grid((0.0, 1.0), nx=5, nt=3)
    cases = [
        Series([(1.0, Pow(X, -1.25))]),
        Series([(0.0, Const(2.0) + X), (2.0, Const(3.0) * Pow(X, -1.25) + X)]),
        # the first monomial in order fails at its second factor, a later one
        # at its first: the error must come from the first monomial (the
        # zero check samples x > 0.02, where both are defined)
        Series([(1.0, Pow(X, 0.5) * Pow(X - Const(1e-4), 0.5)
                 + Pow(X, -1.25) * Pow(Exp(X), 3.0))]),
    ]
    for s in cases:
        with pytest.raises(PowerDomainError) as want:
            _reference_grid(s, grid)
        with pytest.raises(PowerDomainError) as got:
            evaluate_series_grid(s, grid)
        assert str(got.value) == str(want.value)
    assert "negative base" in str(got.value)


# ---------------------------------------------------------------------------
# common angle
# ---------------------------------------------------------------------------


def _reference_common_angle(ratios):
    # the common angle of a ratio list as symx computed it before _pair_angle:
    # the angle unit g with every ratio a nonzero integer multiple, or None
    g = abs(ratios[0])
    for r in ratios[1:]:
        g = symx._fgcd(g, r)
    rmin = min(abs(r) for r in ratios)
    q = round(rmin / g)
    if q >= 1 and abs(rmin - q * g) <= symx.TRIG_RATIO_TOL * (rmin + g):
        g = rmin / q
    for r in ratios:
        mi = round(r / g)
        if mi == 0 or abs(mi) > symx.TRIG_MULTIPLE_MAX \
                or abs(r - mi * g) > symx.TRIG_RATIO_TOL * (abs(r) + g):
            return None
    return g


def _assert_angle(r1, r2):
    got = symx._pair_angle(r1, r2)
    want = _reference_common_angle(r1 + r2)
    assert (got is None) == (want is None), (r1, r2)
    if want is not None:
        assert got.hex() == want.hex(), (r1, r2)


def _captured_ratio_pairs(monkeypatch):
    calls = []
    real = fracterm.fourier_sums

    def recording(ps, qs, groups):
        calls.append((ps, qs))
        return real(ps, qs, groups)

    monkeypatch.setattr(fracterm, "fourier_sums", recording)
    for pid in ("p6", "p7"):
        for alpha in (0.5, 0.75, 1.0):
            spec = builtin(pid, alpha)
            # the products of each solve, and of the N(S*_3) and A_4 its
            # final step leaves out
            spec.nonlinear.apply(mldm_solve(spec, 3).records[-1].partial_sum)
            adomian_polys(spec.nonlinear, [r.u for r in ladm_solve(spec, 4).records])
    monkeypatch.setattr(fracterm, "fourier_sums", real)
    # the ratio tuples the kernel takes its angle from: one per operand list
    # for a whole series product, one per poly for a product of one pair
    pairs = set()
    for ps, qs in calls:
        fps = [symx._fourier_poly_items(p) for p in ps]
        fqs = [symx._fourier_poly_items(q) for q in qs]
        if None not in fps + fqs:
            pairs.add((symx._form_ratios(fps), symx._form_ratios(fqs)))
        for fp in fps:
            for fq in fqs:
                if fp is not None and fq is not None:
                    pairs.add((symx._form_ratios([fp]), symx._form_ratios([fq])))
    return sorted(pairs)


def test_pair_angle_matches_on_captured_series_products(monkeypatch):
    pairs = _captured_ratio_pairs(monkeypatch)
    assert len(pairs) > 200
    for r1, r2 in pairs:
        _assert_angle(r1, r2)
        _assert_angle(r2, r1)


def test_pair_angle_matches_on_random_and_incommensurate_tuples():
    rng = random.Random(20931)
    units = [1.0, math.pi, 0.5 * math.pi, 1.0 / 3.0, 0.1, 2.0 ** -20]
    tuples = []
    for _ in range(300):
        g = rng.choice(units)
        t = tuple(rng.choice([1, -1]) * rng.randint(1, 40) * g
                  for _ in range(rng.randint(1, 6)))
        if rng.random() < 0.2:
            t += (rng.choice([math.sqrt(2.0), math.e, 5000.0 * g, g * 1e-13]),)
        tuples.append(t)
    for _ in range(3000):
        _assert_angle(rng.choice(tuples), rng.choice(tuples))
    # the angle depends on both operands: (1,) pairs with (2,) at g = 1, with
    # (0.5,) at g = 0.5; an incommensurate pair has none
    _assert_angle((1.0,), (2.0,))
    _assert_angle((1.0,), (0.5,))
    _assert_angle((1.0, 3.0), (math.sqrt(2.0),))
    assert symx._pair_angle((1.0,), (0.5,)) == 0.5
    assert symx._pair_angle((1.0,), (math.sqrt(2.0),)) is None


# ---------------------------------------------------------------------------
# boundary substitution
# ---------------------------------------------------------------------------


def _reference_substitute(p, name, value):
    # poly_substitute with a fresh table per call, keyed on atom ids
    repl = Const(float(value))
    cache = {}

    def hit_of(atom):
        if id(atom) not in cache:
            cache[id(atom)] = (poly_of(symx._substitute(atom, name, repl))
                               if symx.contains(atom, name) else atom)
        return cache[id(atom)]

    buckets, order, overflow = {}, [], {}
    for mono, c in p.items():
        factor, residual, exotic = c, [], False
        for atom, k in mono:
            hit = hit_of(atom)
            if hit is atom:
                residual.append((atom, k))
                continue
            if not hit:
                factor = symx._pow_value(0.0, k) * factor
                continue
            if len(hit) == 1:
                (sm, sc), = hit.items()
                if not sm:
                    factor *= symx._pow_value(sc, k)
                    continue
                if sc == 1.0 and (float(k).is_integer() or len(sm) == 1):
                    residual.extend((a, symx._snap(ak * k)) for a, ak in sm)
                    continue
            exotic = True
            break
        if exotic:
            q = {(): c}
            for atom, k in mono:
                hit = hit_of(atom)
                base = atom if hit is atom else expr_of_poly(hit)
                q = symx.poly_mul(q, poly_of(base if k == 1.0 else Pow(base, k)))
            overflow = symx.poly_add(overflow, q)
            continue
        if factor == 0.0:
            continue
        merged = {}
        for atom, k in residual:
            if id(atom) in merged:
                merged[id(atom)][1] = symx._snap(merged[id(atom)][1] + k)
            else:
                merged[id(atom)] = [atom, k]
        key = symx._mono_sorted((a, k) for a, k in merged.values() if k != 0.0)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(factor)
    out = {}
    for key in order:
        s = math.fsum(buckets[key])
        if s != 0.0:
            out[key] = s
    return symx.poly_add(out, overflow) if overflow else out


def _assert_same_poly(got, want):
    assert got == want
    assert list(got) == list(want)
    for mono, c in got.items():
        assert c.hex() == want[mono].hex()


def _snapshot(tables):
    return {key: dict(table) for key, table in tables.items()}


# tools/same_outputs.py solves a copy of this file; keep the two equal.
# (x*y)^0.5 at x = 2 is sqrt(2)*y^0.5, and exp(x + y) at x = 1 is e*exp(y):
# on its faces many monomials take the generic expansion, which no builtin
# problem reaches
BOX_FILE = """\
domain = 1, 2
domain_y = 1, 2
exact = t*(x*y)^0.5 + t^alpha*exp(x + y)
linear = 2x:-0.5, 2y:-0.5
"""

# tools/same_outputs.py solves a copy of this file; keep the two equal.
# (1.5 - x)^0.5 has no value past x = 1.5, inside the zero-check box (0, 2)
OFF_BOX_FILE = """\
domain = 0, 1
exact = t*(1.5 - x)^0.5 + t^alpha*x
nonlinear = u*u_x
"""


def _reference_zero_decision(p):
    # the zero check as it stood: a poly the box cannot evaluate is not zero,
    # and a finite sample within 1e-12 (1 + |v|) of zero is
    if len(p) == 1 and () in p:
        return abs(p[()]) <= symx.ZERO_COEFF_TOL
    if not p:
        return True
    try:
        v = np.abs(_reference_zero_samples(p))
    except PowerDomainError:
        return False
    return bool(np.all(np.isfinite(v) & (v <= symx.ZERO_COEFF_TOL * (1.0 + v))))


def test_zero_decisions_off_the_box_match_the_reference(tmp_path, monkeypatch):
    # every poly decided while both methods solve and report on the file:
    # a factor the box cannot evaluate reads NaN and keeps its poly, as the
    # reference's domain error does
    path = tmp_path / "off_box.txt"
    path.write_text(OFF_BOX_FILE)
    decided, decide = [], fracterm.zero_decisions

    def recording(polys):
        got = decide(polys)
        decided.extend(zip(map(dict, polys), got))
        return got

    monkeypatch.setattr(fracterm, "zero_decisions", recording)
    for alpha in (0.5, 1.0):
        spec = load_problem_file(path, alpha)
        evaluation.convergence_report([ladm_solve(spec, 2), mldm_solve(spec, 2)], spec,
                                      default_grid(spec))
    monkeypatch.undo()
    off_box = 0
    for p, zero in decided:
        assert zero == _reference_zero_decision(p) == symx.is_zero_expr(p), p
        try:
            _reference_zero_samples(p)
        except PowerDomainError:
            off_box += 1
    assert off_box >= 100 and len(decided) - off_box >= 100


def test_substitute_matches_fresh_table_on_solver_terms(tmp_path):
    path = tmp_path / "box.txt"
    path.write_text(BOX_FILE)
    box = [load_problem_file(path, alpha) for alpha in (0.5, 1.0)]
    cases = [(t.poly, face.var, face.at) for spec in box
             for face in spec.bd.values() for t in face.g.terms]
    for spec in [builtin(pid, alpha) for pid in PIDS for alpha in (0.5, 1.0)] + box:
        polys = []
        for rec in mldm_solve(spec, 2).records:
            series = [rec.u, rec.partial_sum]
            if not spec.nonlinear.is_empty():
                series.append(spec.nonlinear.apply(rec.partial_sum))
            polys += [t.poly for s in series for t in s.terms]
        values = list(spec.domain) + [0.3]
        cases += [(p, "x", v) for p in polys for v in values]
        if spec.dimension == 2:
            cases += [(p, "y", v) for p in polys for v in list(spec.domain_y) + [0.3]]
    assert len(cases) > 800
    snapshot = None
    for _ in range(2):                      # the second pass reads a warm table
        for p, name, value in cases:
            got = poly_substitute(p, name, value)
            _assert_same_poly(got, _reference_substitute(p, name, value))
            got.clear()                     # callers own what they get back
        if snapshot is None:
            snapshot = _snapshot(symx._PLANS)
    # the plans were only read
    assert _snapshot(symx._PLANS) == snapshot
    # the box file's faces send monomials through the generic expansion
    generic = {(mono, name, value) for p, name, value in cases for mono in p
               if symx._PLANS[name, float(value)][mono][0] is None}
    assert len(generic) >= 32


def test_a_plan_that_raises_is_not_kept():
    # x^-1 at x = 0 raises while its plan is built: every call raises again,
    # and no plan is left behind
    mono = ((X, -1.0), (Y, 1.0))
    for _ in range(2):
        with pytest.raises(PowerDomainError):
            poly_substitute({mono: 2.0}, "x", 0.0)
        assert mono not in symx._PLANS["x", 0.0]


def test_substitute_with_atoms_built_outside_poly_of():
    # atoms built by hand, again in each pass: every pass builds the same
    # nodes, so the passes after the first read the plan tables and add no
    # entry to them
    first, entries = None, None
    for _ in range(3):
        sin_y, exp_y = Sin(Var("y")), Exp(Const(2.0) * Var("y"))
        sin_x = Sin(Const(math.pi) * Var("x"))
        first = first or (sin_y, exp_y, sin_x)
        assert all(a is b for a, b in zip((sin_y, exp_y, sin_x), first))
        p = {((X, 1.0), (sin_y, 1.0)): 3.0,
             ((sin_y, 2.0),): -1.5,
             ((X, 2.0), (exp_y, 1.0)): 0.25,
             ((sin_x, 1.0), (exp_y, 1.0)): 4.0}
        for value in (0.0, 0.5, 2.0):
            _assert_same_poly(poly_substitute(p, "x", value),
                              _reference_substitute(p, "x", value))
        count = sum(len(symx._PLANS[("x", v)]) for v in (0.0, 0.5, 2.0))
        assert entries in (None, count)
        entries = count


def test_substitute_table_outlives_freed_atoms():
    # a table keyed on id(atom) would hand an atom allocated where a freed
    # one lived the freed atom's entry
    for i in range(200):
        atom = Sin(Const(0.01 * (i + 1)) * Var("y"))
        p = {((atom, 1.0),): 1.0}
        _assert_same_poly(poly_substitute(p, "y", 1.0), _reference_substitute(p, "y", 1.0))


def test_substitute_finishes_a_monomial_past_an_exotic_factor():
    # (x*y)^0.5 at x = 2 is sqrt(2)*y^0.5, which the one-monomial algebra
    # cannot carry; cos(pi*x) after it in the monomial must still be
    # substituted, not read as zero
    e = Pow(X * Y, 0.5) * Cos(Const(math.pi) * X)
    got = expr_of_poly(poly_substitute(poly_of(e), "x", 2.0))
    ys = np.linspace(0.1, 3.0, 7)
    want = evaluate(e, {"x": 2.0, "y": ys})
    assert np.allclose(evaluate(got, {"y": ys}), want, rtol=1e-14, atol=0.0)
