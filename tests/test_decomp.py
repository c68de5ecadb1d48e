"""Boundary correction, decomposition polynomials, and the two solvers."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

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
from fracdecomp.grammar import parse_series, parse_spatial
from fracdecomp.problems import ProblemSpec, builtin
from fracdecomp.symx import Var, equal_sampled, sorted_items

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SQUARE = NonlinearOpSpec((NonlinearProduct(1.0, (NonlinearFactor(0, "x", 2),)),))


# ---------------------------------------------------------------------------
# boundary_correct
# ---------------------------------------------------------------------------


def test_boundary_correct_quadratic_example():
    # u = x^2 t^2 + 0.2 x^4 t^5 on [0,1] with g0 = 0, g1 = t^2 leaves a
    # residual 0.2 t^5 at x = 1; blending weight x moves it to x^4 - x
    u = parse_series("x^2*t^2 + 0.2*x^4*t^5")
    bd = BoundaryData.interval(Series.zero(), parse_series("t^2"))
    got = boundary_correct(u, bd, (0.0, 1.0))
    want = parse_series("x^2*t^2 + 0.2*t^5*(x^4 - x)")
    assert series_equal(got, want, (0.0, 1.0), 1e-12)


def test_boundary_correct_interpolates_exactly():
    # not approximately: the defect series after substitution has no terms
    u = parse_series("x^2*t^2 + 0.2*x^4*t^5")
    g1 = parse_series("t^2")
    bd = BoundaryData.interval(Series.zero(), g1)
    star = boundary_correct(u, bd, (0.0, 1.0))
    at0 = series_substitute(star, "x", 0.0)
    at1 = series_substitute(star, "x", 1.0)
    assert at0.terms == ()
    assert series_add(at1, series_scale(g1, -1.0)).terms == ()


def test_boundary_correct_keeps_satisfying_input():
    u = parse_series("sin(pi*x)*t + x*t^2")
    bd = BoundaryData.interval(Series.zero(), parse_series("t^2"))
    got = boundary_correct(u, bd, (0.0, 1.0))
    assert series_equal(got, u, (0.0, 1.0), 1e-12)


def test_boundary_correct_preserves_initial_trace():
    # data compatible at t = 0, so the correction only moves mu > 0 terms
    u = parse_series("x + x^2*t^2")
    bd = BoundaryData.interval(Series.zero(), parse_series("1 + t^3"))
    got = boundary_correct(u, bd, (0.0, 1.0))
    assert equal_sampled(initial_value(got), initial_value(u), (0.0, 1.0))


def test_paper_literal_weights_match_on_unit_interval():
    u = parse_series("x^2*t^2 + 0.2*x^4*t^5")
    bd = BoundaryData.interval(Series.zero(), parse_series("t^2"))
    a = boundary_correct(u, bd, (0.0, 1.0), weights="normalized")
    b = boundary_correct(u, bd, (0.0, 1.0), weights="paper-literal")
    assert series_equal(a, b, (0.0, 1.0), 1e-12)


def test_paper_literal_weights_miss_on_wider_interval():
    # (1-x, x) blending only interpolates when the interval is [0,1]
    u = parse_series("x*(2 - x)*t + t^2")
    g1 = parse_series("t^2 + 1")
    bd = BoundaryData.interval(parse_series("t^2"), g1)
    exact = boundary_correct(u, bd, (0.0, 2.0), weights="normalized")
    off = boundary_correct(u, bd, (0.0, 2.0), weights="paper-literal")
    d_exact = series_add(series_substitute(exact, "x", 2.0), series_scale(g1, -1.0))
    d_off = series_add(series_substitute(off, "x", 2.0), series_scale(g1, -1.0))
    assert d_exact.terms == ()
    assert not d_off.is_zero()


def test_boundary_correct_degenerate_domain():
    u = parse_series("x*t")
    bd = BoundaryData.interval(Series.zero(), Series.zero())
    with pytest.raises(DecompError):
        boundary_correct(u, bd, (1.0, 1.0))


def test_boundary_correct_unknown_weights():
    u = parse_series("x*t")
    bd = BoundaryData.interval(Series.zero(), Series.zero())
    with pytest.raises(DecompError):
        boundary_correct(u, bd, (0.0, 1.0), weights="hermite")


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


@pytest.mark.parametrize("pid,nonlinear", [("p6", None), ("p7", None), ("p6", CUBIC)])
def test_ladm_grade_n_adomian_matches_all_grades(pid, nonlinear):
    # ladm builds A_n alone from derivatives it keeps across steps; it must
    # be the same series, bit for bit, as grade n of the full convolution
    spec = builtin(pid, alpha=0.75)
    if nonlinear is not None:
        spec = dataclasses.replace(spec, nonlinear=nonlinear)
    trace = ladm_solve(spec, 4)
    assert len(trace.records) == 5
    us = [r.u for r in trace.records]
    full = _adomian_all_grades(spec.nonlinear, us)
    assert adomian_polys(spec.nonlinear, us) == full
    # the final record carries no A_4; build it as the solver's own
    # grade-n routine would have
    assert trace.records[-1].poly is None
    polys = [r.poly for r in trace.records[:-1]] + [adomian_polys(spec.nonlinear, us)[-1]]
    for n, poly in enumerate(polys):
        assert poly == full[n]
        assert poly == _adomian_all_grades(spec.nonlinear, us[:n + 1])[n]


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
        spec = dataclasses.replace(spec, nonlinear=nonlinear)
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
    assert digest == "a595ffb582a35bd4d49ab1525cae2b1acb8f090f7e6cf2839432e58bcaef1198"


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
    g1 = spec.bd.g1
    for rec in trace.records:
        at0 = series_substitute(rec.partial_sum, "x", 0.0)
        at1 = series_substitute(rec.partial_sum, "x", 1.0)
        assert at0.terms == ()
        assert series_add(at1, series_scale(g1, -1.0)).terms == ()


def test_mldm_reduces_to_ladm_without_boundary_defect():
    # a problem whose uncorrected iterates already satisfy the data: the
    # correction must be the identity and the two methods coincide
    exact = parse_series("(1 + t^2)*sin(pi*x)")
    f = parse_spatial("sin(pi*x)")
    h = parse_series("2*t*sin(pi*x)")
    bd = BoundaryData.interval(Series.zero(), Series.zero())
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
    spec = dataclasses.replace(spec, bd=None)
    with pytest.raises(DecompError):
        mldm_solve(spec, 1)


def test_mldm_2d_faces_exact():
    dom = ((0.0, 2.0), (0.0, 2.0))
    for alpha in (0.7, 1.0):
        spec = builtin("p2", alpha=alpha)
        trace = mldm_solve(spec, 1)
        approx = trace.approximation
        for var, val, face in (("x", 0.0, spec.bd.gx0), ("x", 2.0, spec.bd.gx1),
                               ("y", 0.0, spec.bd.gy0), ("y", 2.0, spec.bd.gy1)):
            got = series_substitute(approx, var, val)
            assert series_equal(got, face, dom, 1e-11), (alpha, var, val)


def test_mldm_2d_corner_incompatibility():
    spec = builtin("p2", alpha=1.0)
    bad = BoundaryData.box(spec.bd.gx0, spec.bd.gx1, spec.bd.gy0,
                           series_add(spec.bd.gy1, Series.of(0.0, 1.0)))
    spec = dataclasses.replace(spec, bd=bad)
    with pytest.raises(DecompError):
        mldm_solve(spec, 1)
