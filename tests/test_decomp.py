"""Boundary correction, decomposition polynomials, and the two solvers."""

import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from fracdecomp import decomp, fracterm, symx
from fracdecomp.decomp import (
    BoundaryData,
    DecompError,
    LinearOpSpec,
    NonlinearFactor,
    NonlinearOpSpec,
    NonlinearProduct,
    adomian_polys,
    boundary_correct,
    ladm_solve,
    mldm_solve,
)
from fracdecomp.fracterm import (
    Series,
    initial_value,
    series_add,
    series_equal,
    series_mul,
    series_scale,
    series_substitute,
    spatial_apply,
)
from fracdecomp.grammar import parse_series
from fracdecomp.problems import ProblemSpec, builtin
from fracdecomp.symx import Var, sorted_items

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SQUARE = NonlinearOpSpec((NonlinearProduct(1.0, (NonlinearFactor(0, "x", 2),)),))


# ---------------------------------------------------------------------------
# boundary_correct
# ---------------------------------------------------------------------------


def test_boundary_correct_quadratic_example():
    # u = x^2 t^2 + 0.2 x^4 t^5 on [0,1] with g0 = 0, g1 = t^2 leaves a
    # residual 0.2 t^5 at x = 1; blending weight x moves it to x^4 - x
    u = parse_series("x^2*t^2 + 0.2*x^4*t^5")
    bd = BoundaryData.interval(Series.zero(), parse_series("t^2"), (0.0, 1.0))
    got = boundary_correct(u, bd)
    want = parse_series("x^2*t^2 + 0.2*t^5*(x^4 - x)")
    assert series_equal(got, want, (0.0, 1.0), 1e-12)


def test_boundary_correct_interpolates_exactly():
    # not approximately: the defect series after substitution has no terms
    u = parse_series("x^2*t^2 + 0.2*x^4*t^5")
    g1 = parse_series("t^2")
    bd = BoundaryData.interval(Series.zero(), g1, (0.0, 1.0))
    star = boundary_correct(u, bd)
    at0 = series_substitute(star, "x", 0.0)
    at1 = series_substitute(star, "x", 1.0)
    assert at0.terms == ()
    assert series_add(at1, series_scale(g1, -1.0)).terms == ()


def test_boundary_correct_keeps_satisfying_input():
    u = parse_series("sin(pi*x)*t + x*t^2")
    bd = BoundaryData.interval(Series.zero(), parse_series("t^2"), (0.0, 1.0))
    got = boundary_correct(u, bd)
    assert series_equal(got, u, (0.0, 1.0), 1e-12)


def test_boundary_correct_preserves_initial_trace():
    # data compatible at t = 0, so the correction only moves mu > 0 terms
    u = parse_series("x + x^2*t^2")
    bd = BoundaryData.interval(Series.zero(), parse_series("1 + t^3"), (0.0, 1.0))
    got = boundary_correct(u, bd)
    assert series_equal(initial_value(got), initial_value(u), (0.0, 1.0))


def test_paper_literal_weights_match_on_unit_interval():
    u = parse_series("x^2*t^2 + 0.2*x^4*t^5")
    bd = BoundaryData.interval(Series.zero(), parse_series("t^2"), (0.0, 1.0))
    a = boundary_correct(u, bd, weights="normalized")
    b = boundary_correct(u, bd, weights="paper-literal")
    assert series_equal(a, b, (0.0, 1.0), 1e-12)


def test_paper_literal_weights_miss_on_wider_interval():
    # (1-x, x) blending only interpolates when the interval is [0,1]
    u = parse_series("x*(2 - x)*t + t^2")
    g1 = parse_series("t^2 + 1")
    bd = BoundaryData.interval(parse_series("t^2"), g1, (0.0, 2.0))
    exact = boundary_correct(u, bd, weights="normalized")
    off = boundary_correct(u, bd, weights="paper-literal")
    d_exact = series_add(series_substitute(exact, "x", 2.0), series_scale(g1, -1.0))
    d_off = series_add(series_substitute(off, "x", 2.0), series_scale(g1, -1.0))
    assert d_exact.terms == ()
    assert not d_off.is_zero()


def test_boundary_correct_degenerate_domain():
    u = parse_series("x*t")
    bd = BoundaryData.interval(Series.zero(), Series.zero(), (1.0, 1.0))
    with pytest.raises(DecompError):
        boundary_correct(u, bd)


def test_boundary_correct_unknown_weights():
    u = parse_series("x*t")
    bd = BoundaryData.interval(Series.zero(), Series.zero(), (0.0, 1.0))
    with pytest.raises(DecompError):
        boundary_correct(u, bd, weights="hermite")


def test_polish_scans_trig_scales_only_when_its_gate_trips(monkeypatch):
    # the polish gate trips on p7 alone among the builtins (at alpha 1, by
    # n = 4); the scan of u's trig atoms runs once per polish that trips
    calls, real = [], decomp._max_trig_scale
    monkeypatch.setattr(decomp, "_max_trig_scale",
                        lambda u, var: calls.append(var) or real(u, var))
    for pid in ("p1", "p2", "p3", "p4", "p5", "p6"):
        mldm_solve(builtin(pid, 1.0), 4)
    assert calls == []
    mldm_solve(builtin("p7", 1.0), 4)
    assert calls == ["x", "x"]


# ---------------------------------------------------------------------------
# Adomian and difference polynomials
# ---------------------------------------------------------------------------


def _small_series(rng):
    x = Var("x")
    return Series([(rng.choice([0.0, 0.5, 1.0, 2.0]),
                    rng.uniform(-1.5, 1.5) + rng.uniform(-1.5, 1.5) * x)])


def test_adomian_square_first_three():
    # N(u) = u^2: A_0 = u0^2, A_1 = 2 u0 u1, A_2 = u1^2 + 2 u0 u2
    rng = random.Random(2024)
    for _ in range(5):
        u0, u1, u2 = (_small_series(rng) for _ in range(3))
        a = adomian_polys(SQUARE, [u0, u1, u2])
        assert len(a) == 3
        assert series_equal(a[0], series_mul(u0, u0), tol=1e-11)
        assert series_equal(a[1], series_scale(series_mul(u0, u1), 2.0), tol=1e-11)
        want2 = series_add(series_mul(u1, u1),
                           series_scale(series_mul(u0, u2), 2.0))
        assert series_equal(a[2], want2, tol=1e-11)


def test_adomian_sum_matches_operator_on_partial_sum():
    # with the list padded by zeros past the top lambda-degree, the
    # polynomials are a complete regrouping of N(u0 + u1 + u2 + u3)
    rng = random.Random(515)
    us = [_small_series(rng) for _ in range(4)]
    padded = us + [Series.zero()] * 3
    a = adomian_polys(SQUARE, padded)
    total = Series.zero()
    for p in a:
        total = series_add(total, p)
    s = Series.zero()
    for u in us:
        s = series_add(s, u)
    assert series_equal(total, SQUARE.apply(s), tol=1e-10)


def _adomian_all_grades(nonlinear, u_list):
    """A_0..A_n the way the full grade convolution builds them: every factor
    graded over all of u_list, each product convolved at every grade <= n."""
    n = len(u_list) - 1
    acc = {}

    def graded_mul(a, b):
        res = {}
        for ga, sa in a.items():
            for gb, sb in b.items():
                g = ga + gb
                if g > n:
                    continue
                prod = series_mul(sa, sb)
                res[g] = series_add(res[g], prod) if g in res else prod
        return res

    for p in nonlinear.products:
        term = None
        for f in p.factors:
            graded = {k: spatial_apply(u, f.order, f.var) for k, u in enumerate(u_list)}
            for _ in range(f.power):
                term = dict(graded) if term is None else graded_mul(term, graded)
        for g, s in term.items():
            s = series_scale(s, p.coeff)
            if p.series_coeff is not None:
                s = series_mul(s, p.series_coeff)
            acc[g] = series_add(acc[g], s) if g in acc else s
    return [acc[j] for j in range(n + 1)]


# u^2 * u_x: no builtin is of degree 3, and only a degree-3 product keeps
# intermediate grades before the last multiplication
CUBIC = NonlinearOpSpec((NonlinearProduct(
    0.5, (NonlinearFactor(0, "x", 2), NonlinearFactor(1, "x"))),))


def _assert_close_series(got, want, tol=1e-14):
    # the same exponents, and per monomial a gap within tol of the largest
    # |coefficient| of want's term (a monomial on one side only counts as 0)
    assert [t.mu for t in got.terms] == [t.mu for t in want.terms]
    assert got.truncated == want.truncated
    for tg, tw in zip(got.terms, want.terms):
        scale = max(abs(c) for c in tw.poly.values())
        for mono in set(tg.poly) | set(tw.poly):
            gap = abs(tg.poly.get(mono, 0.0) - tw.poly.get(mono, 0.0))
            assert gap <= tol * scale, (tw.mu, mono, gap / scale)


@pytest.mark.parametrize("pid,nonlinear", [("p6", None), ("p7", None), ("p6", CUBIC)])
def test_ladm_grade_n_adomian_matches_all_grades(pid, nonlinear):
    # ladm builds A_n alone from derivatives it keeps across steps: it is the
    # grade-n routine's series, bit for bit, and grade n of the full
    # convolution up to the order in which one grade's products are summed
    spec = builtin(pid, alpha=0.75)
    if nonlinear is not None:
        spec = spec._replace(nonlinear=nonlinear)
    trace = ladm_solve(spec, 4)
    assert len(trace.records) == 5
    us = [r.u for r in trace.records]
    grades = adomian_polys(spec.nonlinear, us)
    full = _adomian_all_grades(spec.nonlinear, us)
    # the final record carries no A_4; build it as the solver's own
    # grade-n routine would have
    assert trace.records[-1].poly is None
    for n, poly in enumerate([r.poly for r in trace.records[:-1]] + [grades[-1]]):
        assert _bits(poly) == _bits(grades[n]) == _bits(adomian_polys(spec.nonlinear,
                                                                      us[:n + 1])[n])
        _assert_close_series(poly, full[n])
        _assert_close_series(poly, _adomian_all_grades(spec.nonlinear, us[:n + 1])[n])


def _grade_calls(monkeypatch, spec, n):
    """The length of each series_dot call of ladm_solve(spec, n), and the
    group count of each multi-pair fourier_sums call."""
    dots, kernel = [], []
    real_dot, real_sums = decomp.series_dot, fracterm.fourier_sums

    def dot(xs, ys):
        dots.append(len(xs))
        return real_dot(xs, ys)

    def sums(ps, qs, groups):
        if sum(map(len, groups)) > 1:
            kernel.append(len(groups))
        return real_sums(ps, qs, groups)

    monkeypatch.setattr(decomp, "series_dot", dot)
    monkeypatch.setattr(fracterm, "fourier_sums", sums)
    ladm_solve(spec, n)
    return dots, kernel


def test_ladm_forms_each_adomian_grade_in_one_product_call(monkeypatch):
    # grade g of a degree-2 product is one series_dot over its g + 1 pairs,
    # not a chain of products each re-merged into a running sum: p7's two
    # degree-2 products take 16 calls over A_0..A_7, and the Fourier kernel
    # runs once for each and once for each of the 8 products by the forcing
    # coefficient (p7 at n = 8 made 80 multi-pair kernel calls as a chain)
    dots, kernel = _grade_calls(monkeypatch, builtin("p7", alpha=0.75), 8)
    assert dots == [g + 1 for g in range(8) for _ in range(2)]
    assert len(kernel) == 24


def test_ladm_keeps_the_inner_grades_of_a_cubic(monkeypatch):
    # u^2 * u_x keeps u^2's grades across steps, as the derivatives are kept:
    # each A_n forms grade n of u^2 and grade n of the product, 12 calls at
    # n = 6, where rebuilding u^2's grades 0..n at every step made 27
    spec = builtin("p6", alpha=0.75)._replace(nonlinear=CUBIC)
    dots, _ = _grade_calls(monkeypatch, spec, 6)
    assert dots == [g + 1 for g in range(6) for _ in range(2)]


def test_a_repeated_solve_builds_no_new_node():
    # symx keeps every expression node it builds for the life of the
    # process, so a solve run again must find each node it needs already
    # built; the table grows with the structures met, not with the runs
    spec = builtin("p7", alpha=0.75)
    mldm_solve(spec, 4)
    size = len(symx._NODES)
    mldm_solve(spec, 4)
    assert len(symx._NODES) == size


def _bits(series):
    # every float as its hex text, so -0.0 and 0.0 differ
    if series is None:
        return None
    return series.truncated, [(t.mu.hex(), [(mono, c.hex()) for mono, c in t.poly.items()])
                              for t in series.terms]


def _apply_product_by_product(nonlinear, u):
    """N(u) as products of cached derivative series, left to right, each
    scaled, times its series coefficient, and added to a running zero."""
    out = Series.zero()
    derivs = {}
    for p in nonlinear.products:
        term = None
        for f in p.factors:
            d = derivs.setdefault((f.order, f.var), spatial_apply(u, f.order, f.var))
            for _ in range(f.power):
                term = d if term is None else series_mul(term, d)
        term = series_scale(term, p.coeff)
        if p.series_coeff is not None:
            term = series_mul(term, p.series_coeff)
        out = series_add(out, term)
    return out


@pytest.mark.parametrize("pid,nonlinear,solve", [
    ("p6", None, ladm_solve), ("p6", None, mldm_solve), ("p7", None, ladm_solve),
    ("p7", None, mldm_solve), ("p6", CUBIC, ladm_solve)])
def test_nonlinear_apply_matches_product_by_product(pid, nonlinear, solve):
    # apply runs through the Adomian grade routine; on every partial sum it
    # gives the direct product-by-product N(u), bit for bit (the cubic's mldm
    # sums grow too fast to take here)
    spec = builtin(pid, alpha=0.75)
    if nonlinear is not None:
        spec = spec._replace(nonlinear=nonlinear)
    for rec in solve(spec, 3).records:
        u = rec.partial_sum
        assert _bits(spec.nonlinear.apply(u)) == \
            _bits(_apply_product_by_product(spec.nonlinear, u)), rec.n


@pytest.mark.parametrize("pid", ["p2", "p5", "p6", "p7"])
@pytest.mark.parametrize("solve", [ladm_solve, mldm_solve])
def test_solver_records_do_not_depend_on_the_iteration_count(pid, solve):
    # A_N and B*_N only feed u_{N+1}, so an N-iteration solve leaves the final
    # poly out; every other field, and every earlier record, is the same to
    # the bit as in the solve that goes one step further
    spec = builtin(pid, 0.75)
    for n_iter in range(3):
        short, long = solve(spec, n_iter).records, solve(spec, n_iter + 1).records
        assert len(short) == n_iter + 1
        for a, b in zip(short[:-1], long):
            for field in ("u", "u_star", "poly", "partial_sum"):
                assert _bits(getattr(a, field)) == _bits(getattr(b, field)), (a.n, field)
        last, same = short[-1], long[n_iter]
        for field in ("u", "u_star", "partial_sum"):
            assert _bits(getattr(last, field)) == _bits(getattr(same, field)), field
        assert last.poly is None
        assert (same.poly is None) == (spec.nonlinear is None)


def _p7_final_digest():
    # sha256 over one line per term of the p7 mldm (alpha 0.75, n = 4) final
    # partial sum: mu as hex, then each (monomial, coefficient) in sorted
    # order, the coefficient as hex
    trace = mldm_solve(builtin("p7", 0.75), 4)
    final = trace.approximation
    text = "\n".join(t.mu.hex() + " " + " ".join(f"{mono!r}:{c.hex()}"
                                                for mono, c in sorted_items(t.poly))
                     for t in final.terms)
    return trace, hashlib.sha256(text.encode()).hexdigest()


def test_library_solve_is_the_deep_solve():
    # the library solve runs under the one cap pair the CLI and verify use:
    # p7 at four iterations is no longer cut short, and its final partial sum
    # is, bit for bit, the one the CLI writes
    trace, digest = _p7_final_digest()
    assert len(trace.records) == 5
    assert not trace.truncated and not trace.stopped_early
    final = trace.approximation
    assert (len(final.terms), final.terms[-1].mu) == (29, 87.25)
    assert digest == "9c9c9a5f0c26930a4096ffdf274ee6a783a935a1b8df4dcf5951a05c8bc0e354"


def _numpy_blas_is_openblas():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                      # numpy < 1.26 prints only
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_final_sum_does_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its CPU kernel at start-up, and OPENBLAS_CORETYPE forces
    # one; series products use no BLAS routine, so the p7 final sum has one
    # digest whichever kernel the process runs on
    script = ("import test_decomp; "
              "print(test_decomp._p7_final_digest()[1])")
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")])
    digests = []
    for coretype in ("Prescott", "Nehalem"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=coretype)
        r = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        digests.append(r.stdout.strip())
    assert digests[0] == digests[1]
    assert digests[0] == _p7_final_digest()[1]


@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_quadrature_oracle_does_not_depend_on_the_blas_kernel():
    # the oracle behind verify's power-rule check sums its weighted samples
    # with math.fsum, so its values on the check's lattice are the same to
    # the bit under any kernel
    script = ("from fracdecomp import acceptance as a, evaluation as e; "
              "print([e.rl_integral_quadrature(lambda tau, lam=lam: tau ** lam, al, t).hex() "
              "for lam in a._POWER_LAMBDAS for al in a._POWER_ALPHAS "
              "for t in a._POWER_TIMES])")
    outs = []
    for coretype in (None, "Prescott", "Nehalem"):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        r = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout.strip())
    assert outs[0] == outs[1] == outs[2]


def test_nonlinear_degree_cap():
    with pytest.raises(DecompError):
        NonlinearOpSpec((NonlinearProduct(1.0, (NonlinearFactor(0, "x", 4),)),))


def test_mldm_difference_polynomials():
    # p6 has N u = u^2; B*_n is what mldm feeds the recursion
    spec = builtin("p6")
    assert spec.nonlinear.apply(Series.of(1.0, 3.0)) == Series.of(2.0, 9.0)
    recs = mldm_solve(spec, 3).records
    us = [r.u_star for r in recs]
    assert us[0].terms and us[1].terms
    # B*_0 = N(S*_0)
    assert series_equal(recs[0].poly, spec.nonlinear.apply(recs[0].partial_sum), tol=1e-11)
    # B*_1 = N(u*_0 + u*_1) - N(u*_0) = 2 u*_0 u*_1 + u*_1^2
    want1 = series_add(series_scale(series_mul(us[0], us[1]), 2.0),
                       series_mul(us[1], us[1]))
    assert series_equal(recs[1].poly, want1, tol=1e-11)


# ---------------------------------------------------------------------------
# The shared loop against the two loops it replaced
# ---------------------------------------------------------------------------


def _reference_ladm_solve(problem, iterations):
    """ladm as its own loop, the way it ran before both methods shared
    ``decomp._decompose``: the partial sum, A_n and the cap stop kept here."""
    alpha = problem.alpha
    records = []
    grades = (decomp._AdomianGrades(problem.nonlinear)
              if problem.nonlinear is not None else None)
    partial = Series.zero()
    truncated = stopped = False
    u = series_add(problem.f, fracterm.frac_integral(problem.h, alpha))
    for n in range(iterations + 1):
        partial = series_add(partial, u)
        poly = None
        if problem.nonlinear is not None and n < iterations:
            poly = grades.push(u)
        step_trunc = u.truncated or partial.truncated or (poly is not None and poly.truncated)
        truncated = truncated or step_trunc
        records.append(decomp.IterationRecord(n, u, u, poly, partial, 0.0))
        if step_trunc:
            stopped = n < iterations
            break
        if n < iterations:
            rhs = problem.linear.apply(u)
            if poly is not None:
                rhs = series_add(rhs, poly)
            u = series_scale(fracterm.frac_integral(rhs, alpha), -1.0)
    return decomp.SolveTrace("ladm", alpha, None, tuple(records), truncated, stopped)


def _reference_mldm_solve(problem, iterations, weights="normalized"):
    """mldm as its own loop, the way it ran before both methods shared
    ``decomp._decompose``."""
    alpha = problem.alpha
    records = []
    truncated = stopped = False
    raw_sum = s_star_prev = n_star_prev = Series.zero()
    ustar_prev = None
    u = series_add(problem.f, fracterm.frac_integral(problem.h, alpha))
    for n in range(iterations + 1):
        if n > 0:
            rhs = problem.linear.apply(ustar_prev)
            if problem.nonlinear is not None:
                rhs = series_add(rhs, records[-1].poly)
            u = series_scale(fracterm.frac_integral(rhs, alpha), -1.0)
        raw_sum = series_add(raw_sum, u)
        s_star = boundary_correct(raw_sum, problem.bd, weights)
        u_star = series_add(s_star, series_scale(s_star_prev, -1.0))
        poly = None
        if problem.nonlinear is not None and n < iterations:
            n_star = problem.nonlinear.apply(s_star)
            poly = series_add(n_star, series_scale(n_star_prev, -1.0))
            n_star_prev = n_star
        step_trunc = any(s.truncated for s in (u, raw_sum, s_star, u_star)) or \
            (poly is not None and poly.truncated)
        truncated = truncated or step_trunc
        records.append(decomp.IterationRecord(n, u, u_star, poly, s_star, 0.0))
        if step_trunc:
            stopped = n < iterations
            break
        s_star_prev = s_star
        ustar_prev = u_star
    return decomp.SolveTrace("mldm", alpha, weights, tuple(records), truncated, stopped)


def _assert_same_trace(got, want):
    # every field but the timings, each series to the bit
    for field in ("method", "alpha", "weights", "truncated", "stopped_early"):
        assert getattr(got, field) == getattr(want, field), field
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert a.n == b.n
        for field in ("u", "u_star", "poly", "partial_sum"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), (a.n, field)


@pytest.mark.parametrize("pid", [f"p{i}" for i in range(1, 8)])
def test_one_loop_runs_both_methods_as_their_own_loops_did(pid):
    # both problem modes, three orders and three iteration counts, ladm and
    # mldm under both weight families
    for alpha in (0.5, 0.75, 1.0):
        for mode in ("manufactured", "paper-literal"):
            spec = builtin(pid, alpha, mode)
            for n in (0, 1, 3):
                _assert_same_trace(ladm_solve(spec, n), _reference_ladm_solve(spec, n))
                for weights in ("normalized", "paper-literal"):
                    _assert_same_trace(mldm_solve(spec, n, weights),
                                       _reference_mldm_solve(spec, n, weights))


@pytest.mark.parametrize("solve,reference", [(ladm_solve, _reference_ladm_solve),
                                             (mldm_solve, _reference_mldm_solve)])
def test_one_loop_stops_at_a_cap_as_their_own_loops_did(monkeypatch, solve, reference):
    # MAX_MU = 12 cuts p6's nonlinearity at the first step that squares an
    # iterate past t^12: the record is kept and the solve stops early
    monkeypatch.setattr(fracterm, "MAX_MU", 12.0)
    spec = builtin("p6", 1.0)
    got = solve(spec, 4)
    assert got.truncated and got.stopped_early and len(got.records) < 5
    _assert_same_trace(got, reference(spec, 4))


# ---------------------------------------------------------------------------
# ladm_solve
# ---------------------------------------------------------------------------


def test_ladm_seed_term():
    # u_0 = f + I^alpha h with f = 0 for the advection benchmark
    spec = builtin("p5", alpha=0.8)
    trace = ladm_solve(spec, 0)
    assert len(trace.records) == 1
    want = parse_series("t*sin(x) + t^(1 + alpha)*cos(x)/gamma(2 + alpha)", 0.8)
    assert series_equal(trace.records[0].u, want, (0.0, 3.141592653589793), 1e-10)


def test_ladm_record_count_and_validation():
    spec = builtin("p6", alpha=1.0)
    assert len(ladm_solve(spec, 3).records) == 4
    with pytest.raises(DecompError):
        ladm_solve(spec, -1)


# ---------------------------------------------------------------------------
# mldm_solve
# ---------------------------------------------------------------------------


def test_mldm_first_correction_and_iterate():
    # alpha = 1: u*_0 = x^2 t^2 + 0.2 t^5 (x^4 - x), and
    # u_1 = -I^1[(u*_0)^2] expanded by hand
    spec = builtin("p6", alpha=1.0)
    trace = mldm_solve(spec, 1)
    star0 = parse_series("x^2*t^2 + 0.2*t^5*(x^4 - x)")
    assert series_equal(trace.records[0].u_star, star0, (0.0, 1.0), 1e-12)
    u1 = parse_series(
        "-(x^4*t^5/5) - 0.05*t^8*(x^6 - x^3) - (0.04/11)*t^11*(x^8 - 2*x^5 + x^2)")
    assert series_equal(trace.records[1].u, u1, (0.0, 1.0), 1e-12)


def test_mldm_partial_sums_interpolate_boundary():
    spec = builtin("p6", alpha=0.75)
    trace = mldm_solve(spec, 3)
    g1 = spec.bd.faces["bc.L"].g
    for rec in trace.records:
        at0 = series_substitute(rec.partial_sum, "x", 0.0)
        at1 = series_substitute(rec.partial_sum, "x", 1.0)
        assert at0.terms == ()
        assert series_add(at1, series_scale(g1, -1.0)).terms == ()


def test_mldm_reduces_to_ladm_without_boundary_defect():
    # a problem whose uncorrected iterates already satisfy the data: the
    # correction must be the identity and the two methods coincide
    exact = parse_series("(1 + t^2)*sin(pi*x)")
    f = parse_series("sin(pi*x)")
    h = parse_series("2*t*sin(pi*x)")
    bd = BoundaryData.interval(Series.zero(), Series.zero(), (0.0, 1.0))
    spec = ProblemSpec(
        pid="toy", title="identity correction", dimension=1,
        domain=(0.0, 1.0), domain_y=None, alpha=1.0, mode="manufactured",
        f=f, bd=bd, linear=LinearOpSpec(), nonlinear=None, h=h, exact=exact)
    a = ladm_solve(spec, 2)
    b = mldm_solve(spec, 2)
    for ra, rb in zip(a.records, b.records):
        assert series_equal(ra.u, rb.u, (0.0, 1.0), 1e-12)
    assert series_equal(a.records[-1].partial_sum, b.records[-1].partial_sum,
                        (0.0, 1.0), 1e-12)


def test_mldm_needs_boundary_data():
    spec = builtin("p6", alpha=1.0)
    spec = spec._replace(bd=None)
    with pytest.raises(DecompError):
        mldm_solve(spec, 1)


def test_mldm_2d_faces_exact():
    dom = ((0.0, 2.0), (0.0, 2.0))
    for alpha in (0.7, 1.0):
        spec = builtin("p2", alpha=alpha)
        trace = mldm_solve(spec, 1)
        approx = trace.approximation
        assert [(var, val) for var, val, _ in spec.bd.faces.values()] == \
            [("x", 0.0), ("x", 2.0), ("y", 0.0), ("y", 2.0)]
        for var, val, face in spec.bd.faces.values():
            got = series_substitute(approx, var, val)
            assert series_equal(got, face, dom, 1e-11), (alpha, var, val)


def test_mldm_2d_corner_incompatibility():
    spec = builtin("p2", alpha=1.0)
    gx0, gx1, gy0, gy1 = (face.g for face in spec.bd.faces.values())
    bad = BoundaryData.box(gx0, gx1, gy0, series_add(gy1, Series.of(0.0, 1.0)),
                           spec.domain, spec.domain_y)
    spec = spec._replace(bd=bad)
    with pytest.raises(DecompError):
        mldm_solve(spec, 1)
