"""Problem registry, manufactured sources, and the consistency audit.

A ProblemSpec fixes one initial-boundary value problem

    D^alpha u + Qu + Nu = h,   u(., 0) = f,   Dirichlet data on the boundary

on an interval or a box. A problem file states one (see README): its
domain, operators and exact solution, and the source, initial trace and
boundary data as printed. Each of the seven builtin benchmarks (p1..p7) is
such a record, and ``builtin`` and ``load_problem_file`` build their specs
through the same loader, in one of two source modes:

* ``manufactured`` -- h is recomputed from the exact solution by the method
  of manufactured solutions, and f and the boundary data are the exact
  solution's restrictions, so the problem is consistent by construction at
  every alpha.
* ``paper-literal`` -- h, f and the boundary data are taken as given (for a
  builtin: as printed in the benchmark's original statement); a face or
  trace the record omits is derived from the exact solution. Several of the
  printed sources do not solve their own problem; ``validate_consistency``
  reports the defect and the CLI refuses to solve such a spec without an
  explicit override.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from .fracterm import Series, caputo, initial_value, series_add, series_equal, \
    series_mul, series_scale, series_substitute
from .decomp import (
    BoundaryData,
    Face,
    LinearOpSpec,
    NonlinearFactor,
    NonlinearOpSpec,
    NonlinearProduct,
    check_corner_compatibility,
    face_geometry,
)
from .grammar import GrammarError, parse_expr, parse_series, parse_spatial
from .symx import ExprError

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

MODES = ("manufactured", "paper-literal")
# The keys a problem file may set (see README); any other key is an error, so
# a misspelt one cannot be dropped in silence. A file is 2D when it has
# 'domain_y'.
FILE_KEYS = ("alpha", "domain", "domain_y", "exact", "source", "linear", "nonlinear",
             "ic", "bc.l", "bc.L", "bc.x0", "bc.x1", "bc.y0", "bc.y1")


class ProblemError(Exception):
    pass


class ProblemSpec(NamedTuple):
    pid: str
    title: str
    dimension: int
    domain: Tuple[float, float]
    domain_y: Optional[Tuple[float, float]]
    alpha: float
    mode: str
    f: Series
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
# Builtin benchmarks: (title, problem-file record, note). ``ic``, ``bc.*`` and
# ``source`` are the literal printed data, reproduced verbatim including
# their defects; manufactured mode derives all three from ``exact``.
# ---------------------------------------------------------------------------

_BUILTINS: Dict[str, Tuple[str, str, str]] = {
    "p1": ("linear reaction-diffusion, homogeneous box data", """
        domain = 0, 2
        linear = 0:1.0, 2x:-1.0
        exact = t^2 * x*(2 - x)
        ic = 0
        bc.l = 0
        bc.L = 0
        source = 2/gamma(3 - alpha) * x*(2 - x) + 2*t^2
        """, "literal source drops the t^(2-alpha) factor and the u term"),
    "p2": ("linear reaction-diffusion on a square", """
        domain = 0, 2
        domain_y = 0, 2
        linear = 0:1.0, 2x:-1.0, 2y:-1.0
        exact = t^2*(x*(2 - x) + y*(2 - y))
        ic = 0
        bc.x0 = t^2 * y*(2 - y)
        bc.x1 = t^2 * y*(2 - y)
        bc.y0 = t^2 * x*(2 - x)
        bc.y1 = t^2 * x*(2 - x)
        source = 2*t^(2 - alpha)/gamma(3 - alpha)*(x*(2 - x) + y*(2 - y)) + t^2*(x*(2 - x) + y*(2 - y)) + 4*t^2
        """, ""),
    "p3": ("linear advection with transcendental data", """
        domain = 0, 1
        linear = 1x:-1.0
        exact = t^3*cos(x) + exp(x)
        ic = exp(x)
        bc.l = t^3 + 1
        bc.L = t^3*cos(1) + exp(1)
        source = (6*t^(3 - alpha)/gamma(4 - alpha) + t^3)*cos(x) - exp(x)
        """, "literal source forces sin(x) on the t^3 term but prints cos(x)"),
    "p4": ("advection-diffusion with alpha-dependent exact solution", """
        domain = 0, 1
        linear = 1x:1.0, 2x:1.0
        exact = t^(3 + alpha)*sin(x) + 1
        ic = x^2
        bc.l = 1
        bc.L = t^(3 + alpha)*sin(1) + 1
        source = (1/6*gamma(4 + alpha)*t^3 + t^(3 + alpha))*sin(x)
        """, "literal initial data conflicts with the exact solution at t=0;"
             " literal source misses the advection contribution"),
    "p5": ("linear advection, trigonometric exact solution", """
        domain = 0, 1
        linear = 1x:1.0
        exact = t*sin(x)
        ic = 0
        bc.l = 0
        bc.L = t*sin(1)
        source = t^(1 - alpha)*sin(x)/gamma(2 - alpha) + t*cos(x)
        """, ""),
    "p6": ("quadratic nonlinearity, polynomial exact solution", """
        domain = 0, 1
        nonlinear = u^2
        exact = x^2*t^2
        ic = 0
        bc.l = 0
        bc.L = t^2
        source = x^2*(2*t^(2 - alpha)/gamma(3 - alpha) + x^2*t^4)
        """, ""),
    "p7": ("advective-diffusive nonlinearity with oscillatory forcing", """
        domain = 0, 1
        nonlinear = u*u_x - u*u_xx - 4*pi^2*{t^2*sin(2*pi*x)}*u
        exact = t^2*sin(2*pi*x)
        ic = 0
        bc.l = 0
        bc.L = 0
        source = 2*t*sin(2*pi*x) + 2*pi*t^4*sin(2*pi*x)*cos(2*pi*x)
        """, "literal source is printed in its alpha=1 form only"),
}

PROBLEM_IDS = tuple(_BUILTINS)


def builtin(pid: str, alpha: float = 1.0, mode: str = "manufactured") -> ProblemSpec:
    """Construct a builtin benchmark at a given order and source mode."""
    if pid not in _BUILTINS:
        raise ProblemError(f"unknown problem id {pid!r}; available: {', '.join(PROBLEM_IDS)}")
    title, record, note = _BUILTINS[pid]
    return _spec(pid, title, pid, _parse_fields(pid, record), alpha, mode, note)


# ---------------------------------------------------------------------------
# Consistency audit.
# ---------------------------------------------------------------------------

# The audit's sampled tolerances: the source against the manufactured one,
# the initial trace and faces against the exact solution's restrictions.
SOURCE_TOL = 1e-9
DATA_TOL = 1e-10


class ConsistencyReport(NamedTuple):
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


def validate_consistency(spec: ProblemSpec) -> ConsistencyReport:
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
    source_ok = series_equal(spec.h, manufactured, domain=dom, tol=SOURCE_TOL)
    residual = None if source_ok else series_add(spec.h, series_scale(manufactured, -1.0))

    ic_ok = series_equal(spec.f, initial_value(spec.exact), domain=dom, tol=DATA_TOL)

    bc_ok = all(series_equal(face.g, series_substitute(spec.exact, face.var, face.at),
                             domain=dom, tol=DATA_TOL)
                for face in spec.bd.faces.values())

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
# a number's exponent sign, from the digit or point two places before it
_EXPONENT_SIGN = re.compile(r"[0-9.][eE][+-][0-9]")


def _split_top(text: str, seps: str) -> List[str]:
    """Split on separators at brace/paren depth zero; the sign of a number's
    exponent (``1e-3``, read as one literal by the grammar) splits nothing."""
    parts = []
    depth = 0
    cur = []
    for i, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        exponent = i >= 2 and _EXPONENT_SIGN.match(text, i - 2)
        if depth == 0 and ch in seps and not exponent:
            parts.append("".join(cur))
            cur = [ch] if ch in "+-" else []
            continue
        cur.append(ch)
    parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


def _parse_linear_field(name: str, text: str) -> LinearOpSpec:
    triples = []
    for entry in text.split(","):
        if not entry.strip():
            continue
        m = _LINEAR_ENTRY.match(entry)
        if m is None:
            raise ProblemError(f"bad linear entry {entry.strip()!r}; expected order[var]:coeff")
        triples.append((int(m.group(1)), m.group(2) or "x",
                        _file_number(name, "linear", m.group(3))))
    return LinearOpSpec.of(*triples)


def _parse_nonlinear_field(name: str, text: str,
                           alpha: Optional[float]) -> NonlinearOpSpec:
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
                series_coeff = s if series_coeff is None else series_mul(series_coeff, s)
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
        if not math.isfinite(coeff):
            raise ProblemError(f"{name}: nonlinear: the constant of term {term!r} "
                               "is not finite")
        products.append(NonlinearProduct(coeff, tuple(factors), series_coeff))
    return NonlinearOpSpec(tuple(products))


def _file_number(name: str, key: str, text: str) -> float:
    """A finite number, else an error that names the file and key."""
    try:
        v = float(text)
    except ValueError:
        raise ProblemError(f"{name}: {key}: {text!r} is not a number") from None
    if not math.isfinite(v):
        raise ProblemError(f"{name}: {key}: {text!r} is not finite")
    return v


def _parse_interval(name: str, key: str, text: str) -> Tuple[float, float]:
    bits = [b.strip() for b in text.split(",")]
    if len(bits) != 2:
        raise ProblemError(f"{name}: {key}: bad interval {text!r}; expected 'lo, hi'")
    return tuple(_file_number(name, key, b) for b in bits)


def _parse_fields(name: str, text: str) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemError(f"{name}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in FILE_KEYS:
            raise ProblemError(f"{name}:{lineno}: unknown key {key!r}; "
                               f"known: {', '.join(FILE_KEYS)}")
        fields[key] = value.strip()
    return fields


def _read_fields(path: Path) -> Dict[str, str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemError(f"{path}: {exc.strerror}") from None
    return _parse_fields(path.name, text)


def _spec(pid: str, title: str, name: str, fields: Dict[str, str], alpha: float,
          mode: str, note: str = "") -> ProblemSpec:
    """The spec that a problem file's fields state, at one order; ``name``
    (a file name, or a builtin's id) heads the messages of its errors."""
    if not 0.0 < alpha <= 1.0:
        raise ProblemError(f"alpha must lie in (0, 1], got {alpha}")
    if "domain" not in fields:
        raise ProblemError(f"{name}: missing 'domain'")
    domain = _parse_interval(name, "domain", fields["domain"])
    domain_y = (_parse_interval(name, "domain_y", fields["domain_y"])
                if "domain_y" in fields else None)
    dimension = 1 if domain_y is None else 2
    geometry = face_geometry(domain, domain_y)
    for key in fields:
        if key.startswith("bc.") and key not in geometry:
            raise ProblemError(f"{name}: {key!r} is not a face of this problem; "
                               f"its faces are {', '.join(geometry)}")

    def parsed(key: str, parse):
        if key not in fields:
            return None
        try:
            return parse(fields[key], alpha)
        except GrammarError as exc:
            raise ProblemError(f"{name}: {key}:\n{exc.pointer()}") from None
        except ExprError as exc:
            raise ProblemError(f"{name}: {key}: {exc}") from None

    def series_field(key: str, parse):
        """A parsed series field, refused whole if a coefficient is inf or nan."""
        s = parsed(key, parse)
        if s is not None and not all(math.isfinite(c) for term in s.terms
                                     for c in term.poly.values()):
            raise ProblemError(f"{name}: {key}: a coefficient of {fields[key]!r} "
                               "is not finite")
        return s

    linear = _parse_linear_field(name, fields.get("linear", ""))
    nonlinear = parsed("nonlinear", lambda text, a: _parse_nonlinear_field(name, text, a))
    exact = series_field("exact", parse_series)
    source = series_field("source", parse_series)
    if exact is None and source is None:
        raise ProblemError(f"{name}: need 'exact' (manufactured) or 'source' (literal)")
    if exact is None:
        mode = "paper-literal"
    if mode not in MODES:
        raise ProblemError(f"unknown mode {mode!r}; available: {', '.join(MODES)}")
    literal = mode == "paper-literal"
    if literal and source is None:
        raise ProblemError(f"{name}: paper-literal mode needs 'source'")

    def data(key: str, parse, derive):
        """A literal field as given, else the exact solution's restriction."""
        if literal and key in fields:
            return series_field(key, parse)
        if exact is None:
            raise ProblemError(f"{name}: missing '{key}' and no exact to derive it from")
        return derive()

    f = data("ic", lambda text, a: Series.of(0.0, parse_spatial(text, a)),
             lambda: initial_value(exact))
    bd = BoundaryData({
        key: Face(var, at, data(key, parse_series, lambda: series_substitute(exact, var, at)))
        for key, (var, at) in geometry.items()})
    h = source if literal else manufacture_source(exact, linear, nonlinear, alpha)
    spec = ProblemSpec(pid, title, dimension, domain, domain_y, alpha, mode,
                       f, bd, linear, nonlinear, h, exact, note)
    check_corner_compatibility(bd)
    return spec


def file_alpha(path) -> Optional[float]:
    """The ``alpha`` field of a problem file, or None when it has none."""
    path = Path(path)
    text = _read_fields(path).get("alpha")
    return None if text is None else _file_number(path.name, "alpha", text)


def load_problem_file(path, alpha: Optional[float] = None,
                      mode: str = "manufactured") -> ProblemSpec:
    """Read a key = value problem file (see README for the field list)."""
    path = Path(path)
    fields = _read_fields(path)
    if alpha is None and "alpha" in fields:
        alpha = _file_number(path.name, "alpha", fields["alpha"])
    if alpha is None:
        raise ProblemError(f"{path.name}: no alpha given (file field or --alpha)")
    return _spec(path.stem, f"custom problem {path.name}", path.name, fields, alpha, mode)
