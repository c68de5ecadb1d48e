"""Problem registry, manufactured sources, and the consistency audit.

A ProblemSpec fixes one initial-boundary value problem

    D^alpha u + Qu + Nu = h,   u(., 0) = f,   Dirichlet data on the boundary

on an interval or a box. Seven builtin benchmarks (p1..p7) ship in two
source modes:

* ``manufactured`` -- h is recomputed from the registered exact solution by
  the method of manufactured solutions, and f and the boundary data are the
  exact solution's restrictions, so the problem is consistent by
  construction at every alpha.
* ``paper-literal`` -- h, f and the boundary data are transcribed exactly as
  printed in the benchmark's original statement. Several of those printed
  sources do not solve their own problem; ``validate_consistency`` reports
  the defect and the CLI refuses to solve such a spec without an explicit
  override.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .symx import Expr, equal_sampled
from .fracterm import Series, caputo, initial_value, series_add, series_equal, \
    series_scale, series_substitute
from .decomp import (
    BoundaryData,
    LinearOpSpec,
    NonlinearFactor,
    NonlinearOpSpec,
    NonlinearProduct,
    check_corner_compatibility,
)
from .grammar import GrammarError, parse_expr, parse_series, parse_spatial

__all__ = [
    "ProblemError",
    "ProblemSpec",
    "ConsistencyReport",
    "PROBLEM_IDS",
    "MODES",
    "builtin",
    "manufacture_source",
    "validate_consistency",
    "load_problem_file",
    "file_alpha",
]

PROBLEM_IDS = ("p1", "p2", "p3", "p4", "p5", "p6", "p7")
MODES = ("manufactured", "paper-literal")
# The keys a problem file may set (see README); any other key is an error, so
# a misspelt one cannot be dropped in silence. A file is 2D when it has
# 'domain_y'.
FILE_KEYS = ("alpha", "domain", "domain_y", "exact", "source", "linear", "nonlinear",
             "ic", "bc.l", "bc.L", "bc.x0", "bc.x1", "bc.y0", "bc.y1")


class ProblemError(Exception):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    pid: str
    title: str
    dimension: int
    domain: Tuple[float, float]
    domain_y: Optional[Tuple[float, float]]
    alpha: float
    mode: str
    f: Expr
    bd: BoundaryData
    linear: LinearOpSpec
    nonlinear: Optional[NonlinearOpSpec]
    h: Series
    exact: Optional[Series]
    note: str = ""

    def sample_domain(self):
        if self.dimension == 1:
            return self.domain
        return (self.domain, self.domain_y)

    def describe_operator(self) -> str:
        lhs = "D^a u"
        if not self.linear.is_empty():
            lhs += " + " + self.linear.describe()
        if self.nonlinear is not None:
            lhs += " + " + self.nonlinear.describe()
        return lhs.replace("+ -", "- ") + " = h"


def manufacture_source(exact: Series, linear: LinearOpSpec,
                       nonlinear: Optional[NonlinearOpSpec], alpha: float) -> Series:
    """h such that the given exact series solves D^alpha u + Qu + Nu = h."""
    h = caputo(exact, alpha)
    h = series_add(h, linear.apply(exact))
    if nonlinear is not None:
        h = series_add(h, nonlinear.apply(exact))
    return h


# ---------------------------------------------------------------------------
# Builtin benchmark definitions. Sources, data and exact solutions are kept
# as grammar strings so the registry doubles as parser exercise; `h` is the
# literal printed source, reproduced verbatim including its defects.
# ---------------------------------------------------------------------------


def _nl_square() -> NonlinearOpSpec:
    return NonlinearOpSpec((NonlinearProduct(1.0, (NonlinearFactor(0, "x", 2),)),))


def _nl_advect_diffuse_forced() -> NonlinearOpSpec:
    # u*u_x - u*u_xx - 4 pi^2 t^2 sin(2 pi x) u; the last product is the
    # time-dependent linear term carried by a Series coefficient.
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

_BUILTINS: Dict[str, _BuiltinDef] = {
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


def _derived_boundary(exact: Series, d: _BuiltinDef) -> BoundaryData:
    if d.dimension == 1:
        lo, hi = d.domain
        return BoundaryData.interval(series_substitute(exact, "x", lo),
                                     series_substitute(exact, "x", hi))
    lx, Lx = d.domain
    ly, Ly = d.domain_y
    return BoundaryData.box(
        series_substitute(exact, "x", lx),
        series_substitute(exact, "x", Lx),
        series_substitute(exact, "y", ly),
        series_substitute(exact, "y", Ly),
    )


def _literal_boundary(d: _BuiltinDef, alpha: float) -> BoundaryData:
    if d.dimension == 1:
        return BoundaryData.interval(parse_series(d.bc["g0"], alpha),
                                     parse_series(d.bc["g1"], alpha))
    return BoundaryData.box(
        parse_series(d.bc["gx0"], alpha),
        parse_series(d.bc["gx1"], alpha),
        parse_series(d.bc["gy0"], alpha),
        parse_series(d.bc["gy1"], alpha),
    )


def builtin(pid: str, alpha: float = 1.0, mode: str = "manufactured") -> ProblemSpec:
    """Construct a builtin benchmark at a given order and source mode."""
    if pid not in _BUILTINS:
        raise ProblemError(f"unknown problem id {pid!r}; available: {', '.join(PROBLEM_IDS)}")
    if mode not in MODES:
        raise ProblemError(f"unknown mode {mode!r}; available: {', '.join(MODES)}")
    if not 0.0 < alpha <= 1.0:
        raise ProblemError(f"alpha must lie in (0, 1], got {alpha}")
    d = _BUILTINS[pid]
    linear = LinearOpSpec.of(*d.linear)
    nonlinear = _NONLINEAR[d.nonlinear]() if d.nonlinear else None
    exact = parse_series(d.exact, alpha)
    if mode == "manufactured":
        f = initial_value(exact)
        bd = _derived_boundary(exact, d)
        h = manufacture_source(exact, linear, nonlinear, alpha)
    else:
        f = parse_spatial(d.f, alpha)
        bd = _literal_boundary(d, alpha)
        h = parse_series(d.h, alpha)
    spec = ProblemSpec(pid, d.title, d.dimension, d.domain, d.domain_y, alpha, mode,
                       f, bd, linear, nonlinear, h, exact, d.note)
    if spec.dimension == 2:
        check_corner_compatibility(bd, spec.domain, spec.domain_y)
    return spec


# ---------------------------------------------------------------------------
# Consistency audit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    pid: str
    alpha: float
    mode: str
    source_consistent: Optional[bool]
    source_residual: Optional[Series]
    ic_consistent: Optional[bool]
    bc_consistent: Optional[bool]
    detail: str = ""

    @property
    def consistent(self) -> Optional[bool]:
        flags = [self.source_consistent, self.ic_consistent, self.bc_consistent]
        known = [f for f in flags if f is not None]
        if not known:
            return None
        return all(known)

    def labels(self) -> List[str]:
        out = []
        if self.ic_consistent is False:
            out.append("ic")
        if self.bc_consistent is False:
            out.append("bc")
        if self.source_consistent is False:
            out.append("source")
        return out

    def summary(self) -> str:
        if self.consistent is None:
            return "unknown (no exact solution to audit against)"
        if self.consistent:
            return "consistent"
        return "inconsistent (" + ", ".join(self.labels()) + ")"


def validate_consistency(spec: ProblemSpec, source_tol: float = 1e-9,
                         data_tol: float = 1e-10) -> ConsistencyReport:
    """Audit a spec's source and data against its exact solution.

    The source is compared with the manufactured one coefficient by
    coefficient on the problem domain; initial and boundary data are
    compared with the exact solution's restrictions.
    """
    if spec.exact is None:
        return ConsistencyReport(spec.pid, spec.alpha, spec.mode, None, None, None, None,
                                 "no exact solution supplied")
    dom = spec.sample_domain()
    manufactured = manufacture_source(spec.exact, spec.linear, spec.nonlinear, spec.alpha)
    source_ok = series_equal(spec.h, manufactured, domain=dom, tol=source_tol)
    residual = None if source_ok else series_add(spec.h, series_scale(manufactured, -1.0))

    ic_ok = equal_sampled(spec.f, initial_value(spec.exact), dom, tol=data_tol)

    bc_ok = True
    if spec.dimension == 1:
        lo, hi = spec.domain
        pairs = [(spec.bd.g0, series_substitute(spec.exact, "x", lo)),
                 (spec.bd.g1, series_substitute(spec.exact, "x", hi))]
    else:
        (lx, Lx), (ly, Ly) = spec.domain, spec.domain_y
        pairs = [(spec.bd.gx0, series_substitute(spec.exact, "x", lx)),
                 (spec.bd.gx1, series_substitute(spec.exact, "x", Lx)),
                 (spec.bd.gy0, series_substitute(spec.exact, "y", ly)),
                 (spec.bd.gy1, series_substitute(spec.exact, "y", Ly))]
    for given, derived in pairs:
        if not series_equal(given, derived, domain=dom, tol=data_tol):
            bc_ok = False
            break

    detail = ""
    if not source_ok:
        detail = f"source residual (given - manufactured): {residual}"
    return ConsistencyReport(spec.pid, spec.alpha, spec.mode, source_ok, residual,
                             ic_ok, bc_ok, detail)


# ---------------------------------------------------------------------------
# Problem files.
# ---------------------------------------------------------------------------

_LINEAR_ENTRY = re.compile(r"^\s*([012])\s*([xy]?)\s*:\s*([-+0-9.eE]+)\s*$")
_FACTOR = re.compile(r"^u(?:_(x{1,2}|y{1,2}))?(?:\^(\d+))?$")


def _split_top(text: str, seps: str) -> List[str]:
    """Split on separators at brace/paren depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if depth == 0 and ch in seps:
            parts.append("".join(cur))
            cur = [ch] if ch in "+-" else []
            continue
        cur.append(ch)
    parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


def _parse_linear_field(text: str) -> LinearOpSpec:
    triples = []
    for entry in text.split(","):
        if not entry.strip():
            continue
        m = _LINEAR_ENTRY.match(entry)
        if m is None:
            raise ProblemError(f"bad linear entry {entry.strip()!r}; expected order[var]:coeff")
        order, var, coeff = int(m.group(1)), m.group(2) or "x", float(m.group(3))
        triples.append((order, var, coeff))
    return LinearOpSpec.of(*triples)


def _parse_nonlinear_field(text: str, alpha: Optional[float]) -> NonlinearOpSpec:
    products = []
    for term in _split_top(text, "+-"):
        sign = 1.0
        if term[0] in "+-":
            sign = -1.0 if term[0] == "-" else 1.0
            term = term[1:].strip()
        coeff = sign
        series_coeff: Optional[Series] = None
        factors: List[NonlinearFactor] = []
        for tok in _split_top(term, "*"):
            if tok.startswith("*"):
                tok = tok[1:].strip()
            if not tok:
                continue
            if tok.startswith("{") and tok.endswith("}"):
                s = parse_series(tok[1:-1], alpha)
                series_coeff = s if series_coeff is None else series_coeff * s
                continue
            m = _FACTOR.match(tok)
            if m is not None:
                deriv = m.group(1) or ""
                var = deriv[0] if deriv else "x"
                factors.append(NonlinearFactor(len(deriv), var, int(m.group(2) or 1)))
                continue
            e = parse_expr(tok, alpha, allow_t=False)
            if not hasattr(e, "value"):
                raise ProblemError(
                    f"nonlinear token {tok!r} is neither a factor of u nor a constant;"
                    " wrap time-dependent coefficients in {braces}")
            coeff *= e.value
        if not factors:
            raise ProblemError(f"nonlinear term {term!r} has no factor of u")
        products.append(NonlinearProduct(coeff, tuple(factors), series_coeff))
    return NonlinearOpSpec(tuple(products))


def _file_number(path: Path, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ProblemError(f"{path.name}: {key}: {text!r} is not a number") from None


def _parse_interval(path: Path, key: str, text: str) -> Tuple[float, float]:
    bits = [b.strip() for b in text.split(",")]
    if len(bits) != 2:
        raise ProblemError(f"{path.name}: {key}: bad interval {text!r}; expected 'lo, hi'")
    lo, hi = (_file_number(path, key, b) for b in bits)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ProblemError(f"{path.name}: {key}: bad interval {text!r}; "
                           "both ends must be finite")
    return lo, hi


def _read_fields(path: Path) -> Dict[str, str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemError(f"{path}: {exc.strerror}") from None
    fields: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemError(f"{path.name}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in FILE_KEYS:
            raise ProblemError(f"{path.name}:{lineno}: unknown key {key!r}; "
                               f"known: {', '.join(FILE_KEYS)}")
        fields[key] = value.strip()
    return fields


def file_alpha(path) -> Optional[float]:
    """The ``alpha`` field of a problem file, or None when it has none."""
    path = Path(path)
    text = _read_fields(path).get("alpha")
    return None if text is None else _file_number(path, "alpha", text)


def load_problem_file(path, alpha: Optional[float] = None,
                      mode: str = "manufactured") -> ProblemSpec:
    """Read a key = value problem file (see README for the field list)."""
    path = Path(path)
    fields = _read_fields(path)
    if alpha is None and "alpha" in fields:
        alpha = _file_number(path, "alpha", fields["alpha"])
    if alpha is None:
        raise ProblemError(f"{path.name}: no alpha given (file field or --alpha)")
    if not 0.0 < alpha <= 1.0:
        raise ProblemError(f"alpha must lie in (0, 1], got {alpha}")

    if "domain" not in fields:
        raise ProblemError(f"{path.name}: missing 'domain'")
    domain = _parse_interval(path, "domain", fields["domain"])
    domain_y = (_parse_interval(path, "domain_y", fields["domain_y"])
                if "domain_y" in fields else None)
    dimension = 1 if domain_y is None else 2

    try:
        linear = _parse_linear_field(fields.get("linear", ""))
        nonlinear = (_parse_nonlinear_field(fields["nonlinear"], alpha)
                     if "nonlinear" in fields else None)
        exact = parse_series(fields["exact"], alpha) if "exact" in fields else None
        source = parse_series(fields["source"], alpha) if "source" in fields else None
    except GrammarError as exc:
        raise ProblemError(f"{path.name}:\n{exc.pointer()}") from None

    if exact is None and source is None:
        raise ProblemError(f"{path.name}: need 'exact' (manufactured) or 'source' (literal)")
    if exact is None:
        mode = "paper-literal"
    if mode not in MODES:
        raise ProblemError(f"unknown mode {mode!r}; available: {', '.join(MODES)}")

    def face(key: str, derive_var: str, at: float) -> Series:
        if key in fields:
            try:
                return parse_series(fields[key], alpha)
            except GrammarError as exc:
                raise ProblemError(f"{path.name}: {key}:\n{exc.pointer()}") from None
        if exact is not None:
            return series_substitute(exact, derive_var, at)
        raise ProblemError(f"{path.name}: missing '{key}' and no exact to derive it from")

    if mode == "manufactured":
        if exact is None:
            raise ProblemError(f"{path.name}: manufactured mode needs 'exact'")
        f = initial_value(exact)
        if dimension == 1:
            bd = BoundaryData.interval(series_substitute(exact, "x", domain[0]),
                                       series_substitute(exact, "x", domain[1]))
        else:
            bd = BoundaryData.box(series_substitute(exact, "x", domain[0]),
                                  series_substitute(exact, "x", domain[1]),
                                  series_substitute(exact, "y", domain_y[0]),
                                  series_substitute(exact, "y", domain_y[1]))
        h = manufacture_source(exact, linear, nonlinear, alpha)
    else:
        if source is None:
            raise ProblemError(f"{path.name}: paper-literal mode needs 'source'")
        h = source
        if "ic" in fields:
            try:
                f = parse_spatial(fields["ic"], alpha)
            except GrammarError as exc:
                raise ProblemError(f"{path.name}: ic:\n{exc.pointer()}") from None
        elif exact is not None:
            f = initial_value(exact)
        else:
            raise ProblemError(f"{path.name}: missing 'ic' and no exact to derive it from")
        if dimension == 1:
            bd = BoundaryData.interval(face("bc.l", "x", domain[0]),
                                       face("bc.L", "x", domain[1]))
        else:
            bd = BoundaryData.box(face("bc.x0", "x", domain[0]),
                                  face("bc.x1", "x", domain[1]),
                                  face("bc.y0", "y", domain_y[0]),
                                  face("bc.y1", "y", domain_y[1]))

    spec = ProblemSpec(path.stem, f"custom problem {path.name}", dimension, domain,
                       domain_y, alpha, mode, f, bd, linear, nonlinear, h, exact)
    if dimension == 2:
        check_corner_compatibility(bd, domain, domain_y)
    return spec
