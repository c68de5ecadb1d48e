"""Self-verification suite behind the ``verify`` command.

Each check is a frozen experiment: fixed inputs, a fixed tolerance, and for
the expensive ones a wall budget that is part of the contract. Wherever the
library could be wrong in a self-consistent way the check runs a second,
independent route: the quadrature oracle never touches the series code, the
gamma probe compares against the C library, the polynomial check grades a
literal expansion in an auxiliary variable. A red line therefore names the
broken area instead of reporting a generic mismatch.

run_all prints one line per check and returns the records; callers decide
whether a failure is fatal (the CLI exits 1, the test suite asserts).
"""

from __future__ import annotations

import math
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import decomp, evaluation, problems
from .fracterm import (
    Series,
    caputo,
    eval_series,
    frac_integral,
    gamma,
    series_add,
    series_equal,
    series_mul,
    series_scale,
    series_substitute,
    spatial_apply,
)
from .grammar import parse_series
from .symx import Const, Pow, Var, simplify

__all__ = ["CheckResult", "run_all", "all_check_names", "POWER_RULE_TOL"]

GAMMA_TOL = 1e-13
POWER_RULE_TOL = 1e-8
IDENTITY_TOL = 1e-12
BOUNDARY_TOL = 1e-12
POLY_TOL = 1e-12
ANCHOR_TOL = 1e-10
# A partial sum already this close to the exact solution cannot be asked to
# keep halving its error; the comparison switches to an absolute floor.
FLOOR_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    budget: Optional[float]
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.name:<13s} {self.seconds:6.2f}s  {self.detail}"


# ---------------------------------------------------------------------------
# Shared machinery.
# ---------------------------------------------------------------------------

_TRACES: Dict[Tuple[str, str, float, int], "decomp.SolveTrace"] = {}


def _trace(method: str, pid: str, alpha: float, iterations: int):
    """Solve once per (method, problem, alpha, iterations); several checks share traces."""
    key = (method, pid, alpha, iterations)
    got = _TRACES.get(key)
    if got is None:
        spec = problems.builtin(pid, alpha)
        if method == "mldm":
            got = decomp.mldm_solve(spec, iterations)
        else:
            got = decomp.ladm_solve(spec, iterations)
        _TRACES[key] = got
    return got


def _coeff_gap(a: Series, b: Series) -> float:
    """Largest monomial coefficient of a - b, i.e. worst-case coefficient error."""
    diff = series_add(a, series_scale(b, -1.0))
    worst = 0.0
    for term in diff.terms:
        for c in term.poly.values():
            worst = max(worst, abs(c))
    return worst


def _drop_mu0(a: Series) -> Series:
    return Series(t for t in a.terms if t.mu != 0.0)


def _random_series(rng: random.Random, alpha: Optional[float] = None,
                   n_terms: Optional[int] = None) -> Series:
    """Up to five terms with quadratic spatial coefficients.

    When alpha is given the exponents avoid the band (0, alpha) on which the
    fractional derivative of a power is undefined, so the round-trip
    identities can be exercised without tripping the domain guard.
    """
    n = n_terms if n_terms is not None else rng.randint(1, 5)
    x = Var("x")
    s = Series.zero()
    for _ in range(n):
        if alpha is not None and rng.random() < 0.25:
            mu = 0.0
        else:
            lo = alpha + 0.05 if alpha is not None else 0.0
            mu = round(rng.uniform(lo, 6.0), 3)
        coeff = (Const(round(rng.uniform(-3.0, 3.0), 3))
                 + Const(round(rng.uniform(-2.0, 2.0), 3)) * x
                 + Const(round(rng.uniform(-1.0, 1.0), 3)) * x * x)
        s = series_add(s, Series.of(mu, simplify(coeff)))
    return s


# ---------------------------------------------------------------------------
# Checks. Each returns (passed, one-line detail).
# ---------------------------------------------------------------------------

_GAMMA_PROBES = (0.05, 0.1, 0.3, 0.5, 0.9, 1.0, 1.3, 1.7, 2.0, 2.5,
                 3.7, 4.2, 6.5, 8.0, 12.5, 20.0, 33.7)


def _check_gamma() -> Tuple[bool, str]:
    worst, at = 0.0, _GAMMA_PROBES[0]
    for z in _GAMMA_PROBES:
        ref = math.gamma(z)
        rel = abs(gamma(z) - ref) / ref
        if rel > worst:
            worst, at = rel, z
    ok = worst <= GAMMA_TOL
    return ok, (f"gamma vs C library reference, worst rel {worst:.2e} at z={at:g} "
                f"over {len(_GAMMA_PROBES)} probes (tol {GAMMA_TOL:.0e})")


_POWER_LAMBDAS = (0.0, 0.5, 1.0, 2.0, 3.7)
_POWER_ALPHAS = (0.3, 0.5, 0.9, 1.0)
_POWER_TIMES = (0.5, 1.0)


def _check_power_rule(tol: float) -> Tuple[bool, str]:
    worst, where = 0.0, ""
    for lam in _POWER_LAMBDAS:
        for alpha in _POWER_ALPHAS:
            closed = frac_integral(Series.of(lam, 1.0), alpha)
            for t in _POWER_TIMES:
                lib = eval_series(closed, {}, t)
                oracle = evaluation.rl_integral_quadrature(
                    lambda tau, lam=lam: tau ** lam, alpha, t)
                rel = abs(lib - oracle) / abs(oracle)
                if rel > worst:
                    worst, where = rel, f"lambda={lam:g} alpha={alpha:g} t={t:g}"
    ok = worst <= tol
    return ok, f"40 lattice points, worst rel {worst:.2e} at {where} (tol {tol:.0e})"


def _check_semigroup() -> Tuple[bool, str]:
    rng = random.Random(96321)
    worst = 0.0
    for _ in range(50):
        alpha = round(rng.uniform(0.15, 1.0), 3)
        f = _random_series(rng, alpha)
        a = round(rng.uniform(0.1, 1.2), 3)
        b = round(rng.uniform(0.1, 1.2), 3)
        worst = max(worst, _coeff_gap(frac_integral(frac_integral(f, a), b),
                                      frac_integral(f, a + b)))
        worst = max(worst, _coeff_gap(caputo(frac_integral(f, alpha), alpha), f))
        worst = max(worst, _coeff_gap(frac_integral(caputo(f, alpha), alpha),
                                      _drop_mu0(f)))
    ok = worst <= IDENTITY_TOL
    return ok, (f"50 random series: composition, derivative-of-integral and "
                f"integral-of-derivative identities, worst coefficient gap "
                f"{worst:.2e} (tol {IDENTITY_TOL:.0e})")


def _face_sup(gap: Series, other: Optional[str], grid) -> float:
    worst = 0.0
    if other is None:
        for t in grid.ts:
            worst = max(worst, abs(eval_series(gap, {}, float(t))))
        return worst
    pts = grid.ys if other == "y" else grid.xs
    for p in pts:
        env = {other: float(p)}
        for t in grid.ts:
            worst = max(worst, abs(eval_series(gap, env, float(t))))
    return worst


def _check_boundary() -> Tuple[bool, str]:
    worst, where = 0.0, ""
    for pid in problems.PROBLEM_IDS:
        spec = problems.builtin(pid, 1.0)
        trace = _trace("mldm", pid, 1.0, 4)
        grid = evaluation.default_grid(spec)
        geometry = problems.face_geometry(spec.domain, spec.domain_y)
        for n in range(5):
            s = trace.partial(n)
            for face, g in spec.bd.faces().items():
                _, var, at = geometry[face]
                # a box face still varies along the other axis
                other = None if spec.dimension == 1 else "xy".replace(var, "")
                gap = series_add(series_substitute(s, var, at), series_scale(g, -1.0))
                d = _face_sup(gap, other, grid)
                if d > worst:
                    worst, where = d, f"{pid} n={n} {face}"
    ok = worst <= BOUNDARY_TOL
    at = f" at {where}" if where else ""
    return ok, (f"all builtins, corrected sums n<=4, every face: worst "
                f"|trace - data| {worst:.2e}{at} (tol {BOUNDARY_TOL:.0e})")


def _check_telescoping() -> Tuple[bool, str]:
    for pid in ("p6", "p7"):
        spec = problems.builtin(pid, 1.0)
        trace = _trace("mldm", pid, 1.0, 4)
        dom = spec.sample_domain()
        running = Series.zero()
        for n in range(4):
            running = series_add(running, trace.records[n].poly)
            direct = spec.nonlinear.apply(trace.partial(n))
            if not series_equal(running, direct, domain=dom, tol=IDENTITY_TOL):
                return False, (f"{pid} n={n}: sum of difference polynomials does not "
                               f"telescope to N(partial sum)")
    return True, ("p6 and p7: sum of the first n difference polynomials equals "
                  "N(corrected partial sum) for n<=3 (tol 1e-12)")


def _check_adomian() -> Tuple[bool, str]:
    square = decomp.NonlinearOpSpec(
        (decomp.NonlinearProduct(1.0, (decomp.NonlinearFactor(0, "x", 2),)),))
    rng = random.Random(5150)
    worst = 0.0
    for _ in range(6):
        u_list = [_random_series(rng, None, rng.randint(1, 3)) for _ in range(4)]
        got = decomp.adomian_polys(square, u_list)
        # independent route: grade u^2 literally, S = sum_k y^k u_k with an
        # auxiliary variable y, then A_j = (1/j!) d^j/dy^j N(S) at y = 0
        s = Series.zero()
        for k, u in enumerate(u_list):
            weight = Const(1.0) if k == 0 else Pow(Var("y"), float(k))
            s = series_add(s, series_scale(u, weight))
        n_of_s = series_mul(s, s)
        fact = 1.0
        for j in range(4):
            graded = series_scale(series_substitute(n_of_s, "y", 0.0), 1.0 / fact)
            worst = max(worst, _coeff_gap(got[j], graded))
            n_of_s = spatial_apply(n_of_s, 1, "y")
            fact *= j + 1
    ok = worst <= POLY_TOL
    return ok, (f"A_0..A_3 of u^2 vs graded literal expansion, 6 random series "
                f"quadruples, worst coefficient gap {worst:.2e} (tol {POLY_TOL:.0e})")


# Residuals (given minus manufactured source) that the audit must recover for
# the misprinted problem statements, at a generic fractional order.
_EXPECTED_RESIDUALS = {
    "p1": ("2*x*(2 - x)/gamma(3 - alpha)"
           " - 2*t^(2 - alpha)*x*(2 - x)/gamma(3 - alpha) - t^2*x*(2 - x)"),
    "p3": "t^3*(cos(x) - sin(x))",
    "p4": "t^(3 + alpha)*(2*sin(x) - cos(x))",
}


def _check_transcription() -> Tuple[bool, str]:
    bad: List[str] = []
    for pid in ("p5", "p6"):
        for alpha in (0.7, 1.0):
            spec = problems.builtin(pid, alpha, "paper-literal")
            man = problems.manufacture_source(spec.exact, spec.linear,
                                              spec.nonlinear, alpha)
            if not series_equal(spec.h, man, domain=spec.sample_domain(),
                                tol=ANCHOR_TOL):
                bad.append(f"{pid} alpha={alpha:g}: literal source != manufactured")
    for pid, text in _EXPECTED_RESIDUALS.items():
        alpha = 0.7
        spec = problems.builtin(pid, alpha, "paper-literal")
        rep = problems.validate_consistency(spec)
        if rep.source_consistent is not False or rep.source_residual is None:
            bad.append(f"{pid}: literal source not flagged inconsistent")
            continue
        want = parse_series(text, alpha)
        if not series_equal(rep.source_residual, want, domain=spec.sample_domain(),
                            tol=1e-9):
            bad.append(f"{pid}: source residual is {rep.source_residual}, "
                       f"expected {want}")
    if "ic" not in problems.validate_consistency(
            problems.builtin("p4", 0.7, "paper-literal")).labels():
        bad.append("p4: conflicting initial data not flagged")
    if bad:
        return False, "; ".join(bad)
    return True, ("p5 and p6 literal sources match manufactured ones (tol 1e-10); "
                  "p1, p3, p4 flagged with the recorded residuals")


def _check_convergence() -> Tuple[bool, str]:
    bad: List[str] = []
    notes: List[str] = []
    for pid in problems.PROBLEM_IDS:
        spec = problems.builtin(pid, 1.0)
        grid = evaluation.default_grid(spec)
        rows = evaluation.convergence_report([_trace("mldm", pid, 1.0, 4)], spec, grid)
        errs = [row.max_abs for row in rows]
        res = [row.residual for row in rows]
        drops = errs[4] < errs[2] or errs[4] <= FLOOR_TOL
        settles = all(res[i + 1] <= res[i] * (1.0 + 1e-9) + 1e-15 for i in range(4))
        if drops and settles:
            notes.append(f"{pid} {errs[2]:.1e}->{errs[4]:.1e}")
        else:
            bad.append(f"{pid}: error n=2 {errs[2]:.3e} -> n=4 {errs[4]:.3e}, "
                       "residuals " + " ".join(f"{r:.2e}" for r in res))
    if bad:
        return False, "; ".join(bad)
    return True, ("error(4) < error(2) and residual non-increasing for every "
                  "builtin at alpha=1: " + ", ".join(notes))


def _check_comparison() -> Tuple[bool, str]:
    for pid in ("p5", "p6"):
        for alpha in (0.8, 1.0):
            spec = problems.builtin(pid, alpha)
            grid = evaluation.default_grid(spec)
            corrected = _trace("mldm", pid, alpha, 3)
            classical = _trace("ladm", pid, alpha, 3)
            for n in (1, 2, 3):
                m = evaluation.grid_error(corrected.partial(n), spec.exact,
                                          grid).max_abs
                c = evaluation.grid_error(classical.partial(n), spec.exact,
                                          grid).max_abs
                if m > c * (1.0 + 1e-12):
                    return False, (f"{pid} alpha={alpha:g} n={n}: corrected "
                                   f"{m:.3e} > classical {c:.3e}")
    return True, ("corrected max_abs <= classical max_abs for p5 and p6, "
                  "alpha in {0.8, 1.0}, n in {1, 2, 3}")


_SWEEP_PIDS = ("p1", "p2", "p3", "p7")


def _check_alpha_sweep() -> Tuple[bool, str]:
    notes: List[str] = []
    for pid in _SWEEP_PIDS:
        spec = problems.builtin(pid, 1.0)
        grid = evaluation.default_grid(spec)
        ref = evaluation.evaluate_series_grid(
            _trace("mldm", pid, 1.0, 2).approximation, grid)
        dist = {}
        for alpha in (0.6, 0.8):
            arr = evaluation.evaluate_series_grid(
                _trace("mldm", pid, alpha, 2).approximation, grid)
            dist[alpha] = float(np.max(np.abs(arr - ref)))
        # a problem whose iterates do not depend on alpha produces coincident
        # curves; distances at dust scale are trivially ordered
        ordered = (dist[0.6] >= dist[0.8]
                   and (dist[0.6] <= FLOOR_TOL or dist[0.6] > dist[0.8]))
        if not ordered:
            return False, (f"{pid}: distances to the alpha=1 curve not ordered, "
                           f"d(0.6)={dist[0.6]:.3e} d(0.8)={dist[0.8]:.3e}")
        notes.append(f"{pid} {dist[0.6]:.1e}>={dist[0.8]:.1e}")
    return True, "curves order monotonically toward alpha=1: " + ", ".join(notes)


def _mask_wall_column(payload: bytes) -> bytes:
    """Blank the trailing seconds field of summary rows; wall time is the one
    honest nondeterminism in otherwise byte-identical output."""
    lines = payload.decode().splitlines()
    out = [lines[0]] if lines else []
    for row in lines[1:]:
        head, _, _ = row.rpartition(",")
        out.append(head + ",-")
    return "\n".join(out).encode()


def _check_determinism() -> Tuple[bool, str]:
    # imported here to avoid a cycle: the cli module runs this suite
    from click.testing import CliRunner

    from .cli import main

    payloads: List[Dict[str, bytes]] = []
    with tempfile.TemporaryDirectory() as td:
        for sub in ("first", "second"):
            outdir = os.path.join(td, sub)
            result = CliRunner().invoke(
                main, ["solve", "--problem", "p5", "--alpha", "0.8,1.0",
                       "--method", "both", "--iters", "2", "--out", outdir])
            if result.exit_code != 0:
                return False, (f"solve exited {result.exit_code}: "
                               f"{result.output.strip()[:160]}")
            files = {}
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name), "rb") as fh:
                    files[name] = fh.read()
            payloads.append(files)
    first, second = payloads
    if first.keys() != second.keys():
        return False, f"file sets differ: {sorted(first)} vs {sorted(second)}"
    for name in sorted(first):
        a, b = first[name], second[name]
        if name == "summary.csv":
            a, b = _mask_wall_column(a), _mask_wall_column(b)
        if a != b:
            return False, f"{name} differs between two identical runs"
    return True, (f"two identical solve runs, {len(first)} output files "
                  "byte-identical (wall column of summary.csv masked)")


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

_CHECKS: Tuple[Tuple[str, Callable], ...] = (
    ("gamma", _check_gamma),
    ("power-rule", _check_power_rule),
    ("semigroup", _check_semigroup),
    ("boundary", _check_boundary),
    ("telescoping", _check_telescoping),
    ("adomian", _check_adomian),
    ("transcription", _check_transcription),
    ("convergence", _check_convergence),
    ("comparison", _check_comparison),
    ("alpha-sweep", _check_alpha_sweep),
    ("determinism", _check_determinism),
)

_BUDGETS = {
    "power-rule": 5.0,
    "semigroup": 2.0,
    "boundary": 30.0,
    "convergence": 60.0,
}


def all_check_names() -> Tuple[str, ...]:
    return tuple(name for name, _ in _CHECKS)


def run_all(only: Optional[Sequence[str]] = None,
            quad_tol: float = POWER_RULE_TOL,
            echo: Optional[Callable[[str], None]] = None) -> List[CheckResult]:
    """Run the suite (or the named subset) and return one record per check."""
    if only is not None:
        unknown = sorted(set(only) - set(all_check_names()))
        if unknown:
            raise ValueError(f"unknown check names: {', '.join(unknown)}; "
                             f"available: {', '.join(all_check_names())}")
    results: List[CheckResult] = []
    for name, fn in _CHECKS:
        if only is not None and name not in only:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(quad_tol) if name == "power-rule" else fn()
        except Exception as exc:  # a crashed check is a failed check, keep going
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        budget = _BUDGETS.get(name)
        if budget is not None and seconds >= budget:
            passed = False
            detail += f"; over budget ({seconds:.2f}s >= {budget:.0f}s)"
        results.append(CheckResult(name, passed, seconds, budget, detail))
        if echo is not None:
            echo(results[-1].line())
    return results
