"""Grids, error norms, PDE residuals, and the quadrature cross-check."""

import math

import numpy as np
import pytest

from fracdecomp import evaluation, fracterm
from fracdecomp.decomp import ladm_solve, mldm_solve
from fracdecomp.evaluation import (
    EvalError,
    QuadratureError,
    _derivative_grids,
    convergence_report,
    default_grid,
    evaluate_series_grid,
    grid_error,
    make_grid,
    residual,
    rl_integral_quadrature,
)
from fracdecomp.fracterm import (
    Series,
    caputo,
    series_add,
    series_scale,
    spatial_apply,
)
from fracdecomp.grammar import parse_series
from fracdecomp.problems import PROBLEM_IDS, builtin, load_problem_file
from fracdecomp.symx import FactorTable, PowerDomainError


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_make_grid_validates_counts():
    with pytest.raises(EvalError):
        make_grid((0.0, 1.0), nx=1)
    with pytest.raises(EvalError):
        make_grid((0.0, 1.0), nt=1)
    with pytest.raises(EvalError):
        make_grid((0.0, 1.0), (0.0, 1.0), ny=1)


def test_make_grid_validates_tmax():
    for tmax in (0.0, -2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(EvalError):
            make_grid((0.0, 1.0), tmax=tmax)


def test_evaluate_series_grid_shapes():
    g1 = make_grid((0.0, 2.0), nx=41, nt=21)
    a = evaluate_series_grid(parse_series("t*x"), g1)
    assert a.shape == (41, 21)
    g2 = make_grid((0.0, 2.0), (0.0, 2.0), nx=11, ny=9, nt=5)
    b = evaluate_series_grid(parse_series("t*x*y"), g2)
    assert b.shape == (11, 9, 5)


def test_evaluate_series_grid_time_zero_constant_term():
    # t^0 evaluates to 1 on the t = 0 slice, not 0^0 = 0
    g = make_grid((0.0, 1.0), nx=5, nt=3)
    a = evaluate_series_grid(Series.of(0.0, 2.0), g)
    assert np.all(a[:, 0] == 2.0)


# ---------------------------------------------------------------------------
# grid_error
# ---------------------------------------------------------------------------


def test_grid_error_self_is_zero():
    s = parse_series("t^2*x*(2 - x) + t*sin(x)")
    g = make_grid((0.0, 2.0))
    assert grid_error(s, s, g).max_abs == 0.0


def test_grid_error_peak_location_and_value():
    # |0 - t^2 x(2-x)| on [0,2]x[0,1] peaks at x = 1, t = 1 with value 1
    s = parse_series("t^2*x*(2 - x)")
    g = make_grid((0.0, 2.0))
    rep = grid_error(Series.zero(), s, g)
    assert rep.max_abs == 1.0
    i, k = np.unravel_index(np.argmax(rep.table), rep.table.shape)
    assert g.xs[i] == 1.0 and g.ts[k] == 1.0


def test_grid_error_symmetry_and_norm_order():
    a = parse_series("t*sin(x)")
    b = parse_series("t*cos(x)")
    g = make_grid((0.0, 1.0))
    ra, rb = grid_error(a, b, g), grid_error(b, a, g)
    assert ra.max_abs == rb.max_abs
    assert ra.l2 == rb.l2
    assert ra.l2 <= ra.max_abs


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_of_exact_solution_vanishes():
    for pid in PROBLEM_IDS:
        spec = builtin(pid, alpha=0.7)
        g = default_grid(spec)
        assert residual(spec.exact, spec, g) <= 1e-10, pid


def test_residual_of_zero_is_source_magnitude():
    spec = builtin("p6", alpha=0.7)
    g = default_grid(spec)
    h = np.abs(evaluate_series_grid(spec.h, g))
    assert abs(residual(Series.zero(), spec, g) - float(h.max())) <= 1e-12


def test_residual_decreases_along_iterations():
    spec = builtin("p5", alpha=0.8)
    g = default_grid(spec)
    trace = mldm_solve(spec, 3)
    vals = [residual(trace.records[n].partial_sum, spec, g) for n in (1, 2, 3)]
    assert vals[1] <= vals[0] and vals[2] <= vals[1]


def _symbolic_residual(approx, spec, grid):
    # the residual as it stood: N(approx) as one series, from a series
    # product, added into the defect series
    res = caputo(approx, spec.alpha)
    res = series_add(res, spec.linear.apply(approx))
    res = series_add(res, spec.nonlinear.apply(approx))
    res = series_add(res, series_scale(spec.h, -1.0))
    assert not res.truncated
    return float(np.abs(evaluate_series_grid(res, grid)).max())


def _assert_matches_symbolic(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, want), (got, want)


@pytest.mark.parametrize("pid", ["p6", "p7"])
@pytest.mark.parametrize("solve", [ladm_solve, mldm_solve])
def test_residual_matches_the_symbolic_residual(pid, solve):
    # N evaluated on the grid adds in another order than N built as a series
    # and then evaluated, so the two agree to rounding, not to the bit
    for alpha in (0.5, 0.75, 1.0):
        spec = builtin(pid, alpha)
        g = default_grid(spec)
        trace = solve(spec, 4)
        assert len(trace.records) == 5
        for rec in trace.records:
            _assert_matches_symbolic(residual(rec.partial_sum, spec, g),
                                     _symbolic_residual(rec.partial_sum, spec, g))


# tools/same_outputs.py solves a copy of this file; keep the two equal
TWO_D_FILE = """\
domain = 0, 1
domain_y = 0, 1
exact = t*x*y + t^2*x
linear = 2x:-0.5, 2y:-0.5
nonlinear = u*u_y + 0.5*u^2*u_x - {t^alpha}*u_xx
"""


def test_residual_matches_the_symbolic_residual_on_a_2d_file(tmp_path):
    # a y-derivative, a power, a degree-3 product and a time-dependent
    # coefficient. Past n = 1 the symbolic cubic is slow, and its expanded
    # coefficients cancel so far that the series route is the inaccurate one
    path = tmp_path / "cubic2d.txt"
    path.write_text(TWO_D_FILE)
    for alpha in (0.5, 1.0):
        spec = load_problem_file(path, alpha)
        g = default_grid(spec)
        for solve in (ladm_solve, mldm_solve):
            for rec in solve(spec, 1).records:
                _assert_matches_symbolic(residual(rec.partial_sum, spec, g),
                                         _symbolic_residual(rec.partial_sum, spec, g))


def test_residual_rebuilds_a_truncated_nonlinearity(monkeypatch):
    # MAX_MU = 12 cuts N(S*_1) of p6 (exponents up to 22) but not S*_1 (up
    # to 11), and the solve stops there; the residual forms no series
    # product, so under the same cap it matches the symbolic one rebuilt in
    # full once the cap is lifted
    spec = builtin("p6", 1.0)
    g = default_grid(spec)
    monkeypatch.setattr(fracterm, "MAX_MU", 12.0)
    trace = mldm_solve(spec, 4)
    rec = trace.records[-1]
    assert trace.stopped_early and rec.n == 1
    applied = spec.nonlinear.apply(rec.partial_sum)
    assert applied.truncated and not rec.partial_sum.truncated
    want = residual(rec.partial_sum, spec, g)
    assert convergence_report([trace], spec, g)[-1].residual == want
    monkeypatch.undo()
    full = spec.nonlinear.apply(rec.partial_sum)
    assert not full.truncated and applied != full
    _assert_matches_symbolic(want, _symbolic_residual(rec.partial_sum, spec, g))


def _monomial_scale(series, grid):
    # grid sup of the sum over every monomial row of |row| * t^mu: the size
    # of the values a rounding error of the derivative grids is relative to
    table = FactorTable({"x": grid.xs} if grid.ys is None else
                        {"x": grid.xs[:, None], "y": grid.ys[None, :]})
    out = np.zeros(grid.shape)
    for term in series.terms:
        r = sum(np.abs(table.read(([item],))[0][0]) for item in term.poly.items())
        out += r.reshape(table.space_shape)[..., None] * np.power(grid.ts, term.mu)
    return float(out.max())


def _assert_derivatives_match(series, grid):
    # the product-rule grids against the derivative series, evaluated; the
    # two sum the same values in other orders, so they agree to rounding,
    # and the order-0 grid is the series' own grid bit for bit
    variables = ("x",) if grid.ys is None else ("x", "y")
    keys = [(order, var) for var in variables for order in (0, 1, 2)]
    got = _derivative_grids(series, keys, grid)
    for order, var in keys:
        d = spatial_apply(series, order, var)
        want = evaluate_series_grid(d, grid)
        if order == 0:
            assert np.array_equal(got[order, var], want)
            continue
        gap = float(np.abs(got[order, var] - want).max())
        assert gap <= 1e-13 * _monomial_scale(d, grid), (order, var, gap)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_derivative_grids_match_the_derivative_series(pid):
    for alpha in (0.5, 0.75, 1.0):
        spec = builtin(pid, alpha)
        g = default_grid(spec)
        for solve in (ladm_solve, mldm_solve):
            for rec in solve(spec, 3).records:
                _assert_derivatives_match(rec.partial_sum, g)


def test_derivative_grids_match_the_derivative_series_on_a_2d_file(tmp_path):
    path = tmp_path / "cubic2d.txt"
    path.write_text(TWO_D_FILE)
    for alpha in (0.5, 1.0):
        spec = load_problem_file(path, alpha)
        g = default_grid(spec)
        for solve in (ladm_solve, mldm_solve):
            for rec in solve(spec, 1).records:
                _assert_derivatives_match(rec.partial_sum, g)


def test_derivative_grids_match_on_products_of_factors():
    # builtin monomials hold at most one factor in each variable; these hold
    # several, so the product rule's cross terms and chain rules are used
    g1 = make_grid((0.0, 1.0), nx=17, nt=5)
    _assert_derivatives_match(parse_series(
        "x*sin(x)*t + x^2*exp(x)*cos(3*x)*t^0.5 + (1 + x)^0.5*x^3*t^2 + 2", None), g1)
    g2 = make_grid((0.0, 1.0), (0.5, 2.0), nx=9, ny=7, nt=4)
    _assert_derivatives_match(parse_series(
        "x*y*sin(x + y)*t + exp(x*y)*y^2*t^0.75 + cos(x)*sin(2*y)", None), g2)


# (exact, nonlinearity, whether the residual meets a pole at x = 0): u_x of
# t*x^0.5 holds x^-0.5, which has no value at x = 0; u_xx of t*x^1.5 does
# too, but its u_x (1.5*t*x^0.5) is fine there, so only a residual that asks
# for the second derivative may fail. The "uxx_three_halves" file is
# POLE_FILE of tools/same_outputs.py.
POLE_CASES = {"ux_half": ("t*x^0.5", "u*u_x", True),
              "uxx_three_halves": ("t*x^1.5", "u*u_xx", True),
              "ux_three_halves": ("t*x^1.5", "u*u_x", False)}


def pole_case_file(name: str) -> str:
    exact, nonlinear, _ = POLE_CASES[name]
    return f"domain = 0, 1\nexact = {exact}\nnonlinear = {nonlinear}\n"


def test_residual_evaluates_only_the_derivatives_it_needs(tmp_path):
    for name, (_, _, fails) in POLE_CASES.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(pole_case_file(name))
        spec = load_problem_file(path, 0.5)
        g = default_grid(spec)
        if fails:
            with pytest.raises(PowerDomainError):
                residual(spec.exact, spec, g)
        else:
            assert residual(spec.exact, spec, g) <= 1e-12, name


def test_convergence_report_evaluates_fixed_series_once(monkeypatch):
    # the exact solution and the nonlinearity's series coefficient are the
    # same for every record, so each is evaluated once per report
    spec = builtin("p7", 0.75)
    g = default_grid(spec)
    traces = [ladm_solve(spec, 2), mldm_solve(spec, 2)]
    fixed = [spec.exact] + [p.series_coeff for p in spec.nonlinear.products
                            if p.series_coeff is not None]
    assert len(fixed) == 2
    seen, real = [], evaluation.evaluate_series_grid
    monkeypatch.setattr(evaluation, "evaluate_series_grid",
                        lambda series, grid: seen.append(series) or real(series, grid))
    rows = convergence_report(traces, spec, g)
    assert len(rows) == 6
    assert [sum(s is f for s in seen) for f in fixed] == [1, 1]
    monkeypatch.undo()
    for row, rec in zip(rows, [r for t in traces for r in t.records]):
        err = grid_error(rec.partial_sum, spec.exact, g)
        assert (row.max_abs, row.l2, row.residual) == (
            err.max_abs, err.l2, residual(rec.partial_sum, spec, g))


def test_applied_is_none_for_ladm_and_linear_problems():
    # no record keeps N of its partial sum; the final record keeps no A_N or
    # B*_N either, and a linear problem has no poly at all
    spec = builtin("p6", 1.0)
    for solve in (ladm_solve, mldm_solve):
        records = solve(spec, 2).records
        assert not any(hasattr(r, "applied") for r in records)
        assert [r.poly is None for r in records] == [False, False, True]
    assert all(r.poly is None for r in mldm_solve(builtin("p5", 1.0), 2).records)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_constant_alpha_one():
    # I^1 of 1 over [0, 2] is 2
    assert abs(rl_integral_quadrature(lambda tau: 1.0, 1.0, 2.0) - 2.0) <= 1e-12


def test_quadrature_linear_half_order():
    # I^0.5 tau at t = 1 is Gamma(2)/Gamma(2.5) = 1/Gamma(2.5)
    got = rl_integral_quadrature(lambda tau: tau, 0.5, 1.0)
    assert abs(got - 1.0 / math.gamma(2.5)) <= 1e-12


def test_quadrature_quadratic_classical():
    got = rl_integral_quadrature(lambda tau: tau * tau, 1.0, 1.0)
    assert abs(got - 1.0 / 3.0) <= 1e-12


def test_quadrature_degree_eight_polynomial():
    # I^0.5 tau^8 at t = 1 is Gamma(9)/Gamma(9.5)
    got = rl_integral_quadrature(lambda tau: tau ** 8, 0.5, 1.0)
    assert abs(got - math.gamma(9.0) / math.gamma(9.5)) <= 1e-9


def test_quadrature_refuses_wild_integrand():
    # the two node counts disagree on a 400 rad/s oscillation
    with pytest.raises(QuadratureError):
        rl_integral_quadrature(lambda tau: math.cos(400.0 * tau), 0.5, 1.0)


# ---------------------------------------------------------------------------
# convergence_report
# ---------------------------------------------------------------------------


def test_convergence_report_single_seed_trace():
    spec = builtin("p5", alpha=1.0)
    g = default_grid(spec)
    rows = convergence_report([ladm_solve(spec, 0)], spec, g)
    assert len(rows) == 1
    assert rows[0].iterations == 0
    assert rows[0].method == "ladm"


def test_convergence_report_comparison_rows():
    spec = builtin("p5", alpha=1.0)
    g = default_grid(spec)
    traces = [ladm_solve(spec, 3), mldm_solve(spec, 3)]
    rows = convergence_report(traces, spec, g)
    rows = [r for r in rows if r.iterations in (1, 2, 3)]
    assert len(rows) == 6
    by_key = {(r.method, r.iterations): r for r in rows}
    for n in (1, 2, 3):
        assert by_key[("mldm", n)].max_abs <= by_key[("ladm", n)].max_abs
    for method in ("ladm", "mldm"):
        secs = [by_key[(method, n)].seconds for n in (1, 2, 3)]
        assert secs == sorted(secs)
