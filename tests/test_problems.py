"""Benchmark registry, manufactured sources, consistency audit, file loader."""

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from fracdecomp.decomp import (
    Face,
    LinearOpSpec,
    NonlinearFactor,
    NonlinearOpSpec,
    NonlinearProduct,
    check_corner_compatibility,
)
from fracdecomp.evaluation import Grid, evaluate_series_grid
from fracdecomp.fracterm import Series, initial_value, series_equal, series_substitute
from fracdecomp.grammar import parse_series, parse_spatial
from fracdecomp.problems import (
    MODES,
    PROBLEM_IDS,
    ProblemError,
    ProblemSpec,
    builtin,
    load_problem_file,
    manufacture_source,
    validate_consistency,
)
from test_decomp import _faces

PI = math.pi


# ---------------------------------------------------------------------------
# builtin registry
# ---------------------------------------------------------------------------


def test_builtin_ids():
    assert PROBLEM_IDS == ("p1", "p2", "p3", "p4", "p5", "p6", "p7")


def test_builtin_p6_literal_source():
    spec = builtin("p6", alpha=0.7, mode="paper-literal")
    want = parse_series("x^2*(2*t^(2 - alpha)/gamma(3 - alpha) + x^2*t^4)", 0.7)
    assert series_equal(spec.h, want, (0.0, 1.0), 1e-12)


def test_builtin_p5_exact_solution():
    spec = builtin("p5", alpha=0.8)
    assert series_equal(spec.exact, parse_series("t*sin(x)", 0.8), (0.0, 1.0))


def test_builtin_p1_manufactured_source():
    # D^alpha u + u - u_xx applied to t^2 x(2-x)
    spec = builtin("p1", alpha=0.7, mode="manufactured")
    want = parse_series(
        "2*t^(2 - alpha)/gamma(3 - alpha)*x*(2 - x) + t^2*x*(2 - x) + 2*t^2", 0.7)
    assert series_equal(spec.h, want, (0.0, 2.0), 1e-12)


def test_builtin_rejects_unknown_inputs():
    with pytest.raises(ProblemError):
        builtin("p9")
    with pytest.raises(ProblemError):
        builtin("p1", mode="verbatim")
    with pytest.raises(ProblemError):
        builtin("p1", alpha=1.5)
    with pytest.raises(ProblemError):
        builtin("p1", alpha=0.0)


def test_builtin_is_deterministic():
    for pid in PROBLEM_IDS:
        a = builtin(pid, alpha=0.7)
        b = builtin(pid, alpha=0.7)
        assert a.h == b.h
        assert a.exact == b.exact
        assert a.f == b.f
        assert a.linear == b.linear


def test_builtin_manufactured_data_is_compatible():
    # initial and boundary data derived from the exact solution must agree
    # with it at the shared edges (t = 0 on each face, x = ends at t = 0)
    for pid in PROBLEM_IDS:
        spec = builtin(pid, alpha=0.7)
        for key, (var, at, g) in spec.bd.items():
            pt = {"x": 0.7, "y": 0.7, var: at}
            grid = Grid(np.array([pt["x"], 2.0]), np.array([pt["y"], 2.0]),
                        np.array([0.0, 1.0]))
            face0, f0 = (evaluate_series_grid(s, grid)[0, 0, 0] for s in (g, spec.f))
            assert abs(face0 - f0) <= 1e-12, (pid, key)


# ---------------------------------------------------------------------------
# reference: the builtins as Python definitions, built without the
# problem-file loader (each registry record must give the same spec)
# ---------------------------------------------------------------------------


def _nl_square() -> NonlinearOpSpec:
    return NonlinearOpSpec((NonlinearProduct(1.0, (NonlinearFactor(0, "x", 2),)),))


def _nl_advect_diffuse_forced() -> NonlinearOpSpec:
    # u*u_x - u*u_xx - 4 pi^2 t^2 sin(2 pi x) u
    return NonlinearOpSpec((
        NonlinearProduct(1.0, (NonlinearFactor(0, "x"), NonlinearFactor(1, "x"))),
        NonlinearProduct(-1.0, (NonlinearFactor(0, "x"), NonlinearFactor(2, "x"))),
        NonlinearProduct(-4.0 * math.pi ** 2, (NonlinearFactor(0, "x"),),
                         series_coeff=parse_series("t^2*sin(2*pi*x)")),
    ))


@dataclass(frozen=True)
class _BuiltinDef:
    title: str
    dimension: int
    domain: Tuple[float, float]
    domain_y: Optional[Tuple[float, float]]
    linear: Tuple[Tuple[int, str, float], ...]
    nonlinear: Optional[str]            # key into _NONLINEAR
    exact: str
    f: str
    bc: Dict[str, str]
    h: str
    note: str = ""


_NONLINEAR = {
    "square": _nl_square,
    "advect_diffuse_forced": _nl_advect_diffuse_forced,
}

_REFERENCE: Dict[str, _BuiltinDef] = {
    "p1": _BuiltinDef(
        title="linear reaction-diffusion, homogeneous box data",
        dimension=1, domain=(0.0, 2.0), domain_y=None,
        linear=((0, "x", 1.0), (2, "x", -1.0)),
        nonlinear=None,
        exact="t^2 * x*(2 - x)",
        f="0",
        bc={"g0": "0", "g1": "0"},
        h="2/gamma(3 - alpha) * x*(2 - x) + 2*t^2",
        note="literal source drops the t^(2-alpha) factor and the u term",
    ),
    "p2": _BuiltinDef(
        title="linear reaction-diffusion on a square",
        dimension=2, domain=(0.0, 2.0), domain_y=(0.0, 2.0),
        linear=((0, "x", 1.0), (2, "x", -1.0), (2, "y", -1.0)),
        nonlinear=None,
        exact="t^2*(x*(2 - x) + y*(2 - y))",
        f="0",
        bc={
            "gx0": "t^2 * y*(2 - y)",
            "gx1": "t^2 * y*(2 - y)",
            "gy0": "t^2 * x*(2 - x)",
            "gy1": "t^2 * x*(2 - x)",
        },
        h="2*t^(2 - alpha)/gamma(3 - alpha)*(x*(2 - x) + y*(2 - y))"
          " + t^2*(x*(2 - x) + y*(2 - y)) + 4*t^2",
    ),
    "p3": _BuiltinDef(
        title="linear advection with transcendental data",
        dimension=1, domain=(0.0, 1.0), domain_y=None,
        linear=((1, "x", -1.0),),
        nonlinear=None,
        exact="t^3*cos(x) + exp(x)",
        f="exp(x)",
        bc={"g0": "t^3 + 1", "g1": "t^3*cos(1) + exp(1)"},
        h="(6*t^(3 - alpha)/gamma(4 - alpha) + t^3)*cos(x) - exp(x)",
        note="literal source forces sin(x) on the t^3 term but prints cos(x)",
    ),
    "p4": _BuiltinDef(
        title="advection-diffusion with alpha-dependent exact solution",
        dimension=1, domain=(0.0, 1.0), domain_y=None,
        linear=((1, "x", 1.0), (2, "x", 1.0)),
        nonlinear=None,
        exact="t^(3 + alpha)*sin(x) + 1",
        f="x^2",
        bc={"g0": "1", "g1": "t^(3 + alpha)*sin(1) + 1"},
        h="(1/6*gamma(4 + alpha)*t^3 + t^(3 + alpha))*sin(x)",
        note="literal initial data conflicts with the exact solution at t=0;"
             " literal source misses the advection contribution",
    ),
    "p5": _BuiltinDef(
        title="linear advection, trigonometric exact solution",
        dimension=1, domain=(0.0, 1.0), domain_y=None,
        linear=((1, "x", 1.0),),
        nonlinear=None,
        exact="t*sin(x)",
        f="0",
        bc={"g0": "0", "g1": "t*sin(1)"},
        h="t^(1 - alpha)*sin(x)/gamma(2 - alpha) + t*cos(x)",
    ),
    "p6": _BuiltinDef(
        title="quadratic nonlinearity, polynomial exact solution",
        dimension=1, domain=(0.0, 1.0), domain_y=None,
        linear=(),
        nonlinear="square",
        exact="x^2*t^2",
        f="0",
        bc={"g0": "0", "g1": "t^2"},
        h="x^2*(2*t^(2 - alpha)/gamma(3 - alpha) + x^2*t^4)",
    ),
    "p7": _BuiltinDef(
        title="advective-diffusive nonlinearity with oscillatory forcing",
        dimension=1, domain=(0.0, 1.0), domain_y=None,
        linear=(),
        nonlinear="advect_diffuse_forced",
        exact="t^2*sin(2*pi*x)",
        f="0",
        bc={"g0": "0", "g1": "0"},
        h="2*t*sin(2*pi*x) + 2*pi*t^4*sin(2*pi*x)*cos(2*pi*x)",
        note="literal source is printed in its alpha=1 form only",
    ),
}


def _reference_boundary(exact, d: _BuiltinDef, alpha: float, mode: str) -> Dict[str, Face]:
    if mode == "manufactured":
        if d.dimension == 1:
            lo, hi = d.domain
            data = (series_substitute(exact, "x", lo), series_substitute(exact, "x", hi))
        else:
            (lx, Lx), (ly, Ly) = d.domain, d.domain_y
            data = (series_substitute(exact, "x", lx), series_substitute(exact, "x", Lx),
                    series_substitute(exact, "y", ly), series_substitute(exact, "y", Ly))
    elif d.dimension == 1:
        data = (parse_series(d.bc["g0"], alpha), parse_series(d.bc["g1"], alpha))
    else:
        data = tuple(parse_series(d.bc[k], alpha) for k in ("gx0", "gx1", "gy0", "gy1"))
    return _faces(data, d.domain, d.domain_y)


def _reference_builtin(pid: str, alpha: float, mode: str) -> ProblemSpec:
    d = _REFERENCE[pid]
    linear = LinearOpSpec.of(*d.linear)
    nonlinear = _NONLINEAR[d.nonlinear]() if d.nonlinear else NonlinearOpSpec()
    exact = parse_series(d.exact, alpha)
    bd = _reference_boundary(exact, d, alpha, mode)
    if mode == "manufactured":
        f = initial_value(exact)
        h = manufacture_source(exact, linear, nonlinear, alpha)
    else:
        f = Series.of(0.0, parse_spatial(d.f, alpha))
        h = parse_series(d.h, alpha)
    check_corner_compatibility(bd)
    return ProblemSpec(pid, d.title, d.dimension, d.domain, d.domain_y, alpha, mode,
                       f, bd, linear, nonlinear, h, exact, d.note)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_builtin_records_match_the_reference_definitions(pid):
    # bit for bit: Series ==, nonlinear products with their float
    # coefficients compared exactly, the initial trace as a series
    assert tuple(_REFERENCE) == PROBLEM_IDS
    for mode in MODES:
        for alpha in (0.3, 0.5, 0.7, 0.75, 1.0):
            got, want = builtin(pid, alpha, mode), _reference_builtin(pid, alpha, mode)
            where = (pid, mode, alpha)
            assert (got.pid, got.title, got.note, got.mode) == \
                (want.pid, want.title, want.note, want.mode), where
            assert (got.dimension, got.domain, got.domain_y, got.alpha) == \
                (want.dimension, want.domain, want.domain_y, want.alpha), where
            assert got.exact == want.exact and got.h == want.h, where
            assert got.f == want.f, where
            assert got.bd == want.bd, where
            assert got.linear == want.linear, where
            assert got.nonlinear == want.nonlinear, where
            assert [p.coeff for p in got.nonlinear.products] == \
                [p.coeff for p in want.nonlinear.products], where


# ---------------------------------------------------------------------------
# manufacture_source
# ---------------------------------------------------------------------------


def test_manufacture_source_advection():
    alpha = 0.8
    exact = parse_series("t*sin(x)", alpha)
    h = manufacture_source(exact, LinearOpSpec.of((1, "x", 1.0)), NonlinearOpSpec(), alpha)
    want = parse_series("t^(1 - alpha)*sin(x)/gamma(2 - alpha) + t*cos(x)", alpha)
    assert series_equal(h, want, (0.0, PI), 1e-11)


def test_manufacture_source_static_exact():
    # no time dependence: the Caputo part vanishes and h = Q(exact)
    exact = parse_series("sin(x)", 0.5)
    h = manufacture_source(exact, LinearOpSpec.of((1, "x", 1.0)), NonlinearOpSpec(), 0.5)
    assert series_equal(h, parse_series("cos(x)", 0.5), (0.0, PI), 1e-12)


def test_manufacture_source_p7_form():
    # the nonlinear terms u u_xx and the forced product cancel on the
    # exact solution, leaving only advection of the profile
    spec = builtin("p7", alpha=0.7)
    want = parse_series(
        "2*t^(2 - alpha)/gamma(3 - alpha)*sin(2*pi*x)"
        " + 2*pi*t^4*sin(2*pi*x)*cos(2*pi*x)", 0.7)
    assert series_equal(spec.h, want, (0.0, 1.0), 1e-10)


# ---------------------------------------------------------------------------
# consistency audit
# ---------------------------------------------------------------------------


EXPECT_CONSISTENT = {
    "p1": False, "p2": True, "p3": False, "p4": False,
    "p5": True, "p6": True,
}


def test_literal_consistency_map():
    for alpha in (0.7, 1.0):
        for pid, want in EXPECT_CONSISTENT.items():
            spec = builtin(pid, alpha=alpha, mode="paper-literal")
            rep = validate_consistency(spec)
            assert rep.consistent is want, (pid, alpha)


def test_literal_p7_consistent_only_at_alpha_one():
    assert validate_consistency(
        builtin("p7", alpha=0.7, mode="paper-literal")).consistent is False
    assert validate_consistency(
        builtin("p7", alpha=1.0, mode="paper-literal")).consistent is True


def test_p4_flags_both_defects():
    rep = validate_consistency(builtin("p4", alpha=0.7, mode="paper-literal"))
    assert rep.labels() == ["ic", "source"]


def test_manufactured_mode_is_always_consistent():
    for pid in PROBLEM_IDS:
        rep = validate_consistency(builtin(pid, alpha=0.7))
        assert rep.consistent is True, pid


# frozen residuals (given source minus manufactured source) at alpha = 0.7
EXPECTED_RESIDUALS = {
    "p1": "2*x*(2 - x)/gamma(3 - alpha) - 2*t^(2 - alpha)*x*(2 - x)/gamma(3 - alpha)"
          " - t^2*x*(2 - x)",
    "p3": "t^3*(cos(x) - sin(x))",
    "p4": "t^(3 + alpha)*(2*sin(x) - cos(x))",
}


def test_literal_source_residuals():
    for pid, text in EXPECTED_RESIDUALS.items():
        spec = builtin(pid, alpha=0.7, mode="paper-literal")
        rep = validate_consistency(spec)
        want = parse_series(text, 0.7)
        assert series_equal(rep.source_residual, want, spec.domain, 1e-9), pid


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


GOOD_FILE = """
# manufactured 1D advection with a quadratic profile
alpha = 0.9
domain = 0, 1
linear = 1x:1.0
exact = t^2*x*(1 - x)
"""


def test_load_problem_file_manufactured(tmp_path):
    p = tmp_path / "adv.txt"
    p.write_text(GOOD_FILE)
    spec = load_problem_file(p)
    assert spec.pid == "adv"
    assert spec.alpha == 0.9
    assert spec.mode == "manufactured"
    want_h = parse_series(
        "2*t^(2 - alpha)/gamma(3 - alpha)*x*(1 - x) + t^2*(1 - 2*x)", 0.9)
    assert series_equal(spec.h, want_h, (0.0, 1.0), 1e-11)
    assert initial_value(spec.exact) is not None
    assert validate_consistency(spec).consistent is True


def test_load_problem_file_literal_defaults(tmp_path):
    # source-only file: mode flips to paper-literal, consistency unknown
    p = tmp_path / "lit.txt"
    p.write_text("alpha = 0.8\ndomain = 0, 1\nsource = t*x\nic = 0\n"
                 "bc.l = 0\nbc.L = t^2/gamma(3)*2\n")
    spec = load_problem_file(p)
    assert spec.mode == "paper-literal"
    rep = validate_consistency(spec)
    assert rep.consistent is None


def test_load_problem_file_missing_fields(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("alpha = 0.5\n")
    with pytest.raises(ProblemError) as err:
        load_problem_file(p)
    assert "domain" in str(err.value)

    p.write_text("alpha = 0.5\ndomain = 0, 1\n")
    with pytest.raises(ProblemError) as err:
        load_problem_file(p)
    assert "exact" in str(err.value) or "source" in str(err.value)


def test_load_problem_file_bad_interval_names_its_key(tmp_path):
    # equal ends, or a width past the float range, in either axis; a reversed
    # interval of finite width is still read as given
    p = tmp_path / "bad.txt"
    for domain, domain_y, key in (("2, 2", "0, 1", "domain"),
                                  ("0, 1", "-0.0, 0.0", "domain_y"),
                                  ("0, 1", "1.7e308, -1.7e308", "domain_y")):
        p.write_text(f"alpha = 0.5\ndomain = {domain}\ndomain_y = {domain_y}\n"
                     "exact = t*x*y\n")
        with pytest.raises(ProblemError) as err:
            load_problem_file(p)
        assert str(err.value).startswith(f"bad.txt: {key}: "), str(err.value)
    p.write_text("alpha = 0.5\ndomain = 1, 0\nexact = t*x\n")
    assert load_problem_file(p).domain == (1.0, 0.0)


def test_load_problem_file_bad_alpha(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("alpha = 1.4\ndomain = 0, 1\nexact = t*x\n")
    with pytest.raises(ProblemError):
        load_problem_file(p)


def test_load_problem_file_bad_linear_entry(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("alpha = 0.5\ndomain = 0, 1\nexact = t*x\nlinear = 3[z]:oops\n")
    with pytest.raises(ProblemError) as err:
        load_problem_file(p)
    assert "linear" in str(err.value)


def test_load_problem_file_grammar_error_points_at_column(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("alpha = 0.5\ndomain = 0, 2\nexact = t^2*sin(pi*x) +* x\n")
    with pytest.raises(ProblemError) as err:
        load_problem_file(p)
    msg = str(err.value)
    assert "^" in msg and "column" in msg


def test_two_brace_coefficients_multiply(tmp_path):
    # {t}*{x}*u carries the product of its brace series, as {t*x}*u does
    specs = []
    for name, nonlinear in (("two", "{t}*{x}*u"), ("one", "{t*x}*u")):
        p = tmp_path / f"{name}.txt"
        p.write_text(f"alpha = 0.6\ndomain = 0, 1\nexact = t*x^2\nnonlinear = {nonlinear}\n")
        specs.append(load_problem_file(p))
    two, one = specs
    assert two.nonlinear == one.nonlinear
    assert two.h == one.h


def test_nonlinear_constants_in_scientific_notation(tmp_path):
    # the sign of an exponent does not split a nonlinear term
    specs = []
    for name, nonlinear in (("sci", "1e-3*u^2 + 2e+0*u*u_x - 2.5E-1*u"),
                            ("dec", "0.001*u^2 + 2*u*u_x - 0.25*u")):
        p = tmp_path / f"{name}.txt"
        p.write_text(f"alpha = 0.5\ndomain = 0, 1\nexact = t*x\nnonlinear = {nonlinear}\n")
        specs.append(load_problem_file(p))
    sci, dec = specs
    assert sci.nonlinear == dec.nonlinear
    assert [p.coeff.hex() for p in sci.nonlinear.products] == \
        [p.coeff.hex() for p in dec.nonlinear.products] == \
        [(0.001).hex(), (2.0).hex(), (-0.25).hex()]
    assert sci.h == dec.h


def test_literal_file_derives_omitted_data_from_exact(tmp_path):
    # paper-literal mode takes the given source, initial trace and faces, and
    # derives what the file leaves out from the exact solution
    p = tmp_path / "part.txt"
    p.write_text("alpha = 0.5\ndomain = 0, 1\nexact = t*x + 1\nsource = x\n"
                 "bc.L = 7\n")
    spec = load_problem_file(p, mode="paper-literal")
    assert spec.h == parse_series("x")
    assert spec.f == parse_series("1")
    assert spec.bd["bc.l"].g == parse_series("1")
    assert spec.bd["bc.L"].g == parse_series("7")
    assert validate_consistency(spec).labels() == ["bc", "source"]
