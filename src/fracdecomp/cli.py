"""Command line front end.

Three commands: ``solve`` runs a builtin or file-defined problem and writes
CSV plus plot-data artifacts, ``list`` tabulates the builtin benchmarks with
their consistency audit, ``verify`` runs the self-check suite. Exit codes
partition cleanly: 0 success, 1 verification failure, 2 input error,
3 consistency gate.

Every solve is deterministic: identical configuration yields byte-identical
points and plot files (the summary CSV's wall-clock column is the one
physical field). Jobs fan out over a process pool when ``--jobs`` asks for
it; results are reassembled in configuration order, never completion order.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import click

from . import acceptance, problems
from .decomp import DecompError, ladm_solve, mldm_solve
from .evaluation import (
    DEFAULT_NT,
    DEFAULT_NX,
    DEFAULT_NY,
    DEFAULT_TMAX,
    EvalError,
    convergence_report,
    evaluate_series_grid,
    make_grid,
)
from .fracterm import DEEP_MU, DEEP_TERMS, SeriesError
from .grammar import GrammarError
from .problems import ProblemError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_GATE = 3

_CONFIG_KEYS = ("problem", "file", "alpha", "method", "iters", "mode", "weights",
                "grid", "tmax", "out", "jobs", "allow_inconsistent")


def _fail(code: int, message: str) -> None:
    click.echo(message, err=True)
    raise SystemExit(code)


def _f(v) -> str:
    """Shortest round-trip float text; identical in every run and process."""
    return repr(float(v))


# ---------------------------------------------------------------------------
# Configuration file and flag merging.
# ---------------------------------------------------------------------------


def _read_config(path: str) -> Dict[str, str]:
    """key = value file, same fields as the flags; a section header is optional."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ProblemError(f"cannot read config {path}: {exc}") from None
    if not text.lstrip().startswith("["):
        text = "[solve]\n" + text
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ProblemError(f"{path}: {exc}") from None
    merged: Dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser[section].items():
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ProblemError(f"{path}: unknown config key {key!r}; "
                                   f"known: {', '.join(_CONFIG_KEYS)}")
            merged[key] = value.strip()
    return merged


def _pick(flag, cfg: Dict[str, str], key: str, default, cast):
    if flag is not None:
        return flag
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError as exc:
            raise ProblemError(f"config {key}: {exc}") from None
    return default


def _parse_alphas(text: str) -> Tuple[float, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            a = float(part)
        except ValueError:
            raise ProblemError(f"bad alpha {part!r}") from None
        if not 0.0 < a <= 1.0:
            raise ProblemError(f"alpha must lie in (0, 1], got {a:g}")
        out.append(a)
    if not out:
        raise ProblemError("no alpha values given")
    return tuple(out)


def _parse_grid(text: str) -> Tuple[int, ...]:
    try:
        counts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ProblemError(f"bad grid {text!r}; expected nx,nt or nx,ny,nt") from None
    if len(counts) not in (2, 3) or any(c < 2 for c in counts):
        raise ProblemError(f"bad grid {text!r}; expected nx,nt or nx,ny,nt "
                           "with counts >= 2")
    return counts


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# ---------------------------------------------------------------------------
# Solve jobs. Workers rebuild the problem from its identifier and return only
# strings, so results pickle cheaply and assembly order is fixed by the
# configuration, not the pool.
# ---------------------------------------------------------------------------


def _build_spec(kind: str, ident: str, alpha: float, mode: str):
    if kind == "builtin":
        return problems.builtin(ident, alpha, mode)
    return problems.load_problem_file(ident, alpha, mode)


def _grid_for(spec, counts: Optional[Tuple[int, ...]], tmax: float):
    nx, ny, nt = DEFAULT_NX, DEFAULT_NY, DEFAULT_NT
    if counts is not None:
        if len(counts) == 2:
            nx, nt = counts
        else:
            nx, ny, nt = counts
    return make_grid(spec.domain, spec.domain_y if spec.dimension == 2 else None,
                     nx=nx, ny=ny, nt=nt, tmax=tmax)


def _run_job(packed: tuple) -> Dict[str, object]:
    (kind, ident, alpha, method, iters, mode, weights, counts, tmax) = packed
    spec = _build_spec(kind, ident, alpha, mode)
    if method == "mldm":
        trace = mldm_solve(spec, iters, weights=weights,
                           max_terms=DEEP_TERMS, max_mu=DEEP_MU)
    else:
        trace = ladm_solve(spec, iters, max_terms=DEEP_TERMS, max_mu=DEEP_MU)
    grid = _grid_for(spec, counts, tmax)

    approx = evaluate_series_grid(trace.approximation, grid)
    exact = (evaluate_series_grid(spec.exact, grid)
             if spec.exact is not None else None)

    points: List[str] = []
    n_final = trace.records[-1].n
    prefix = f"{method},{_f(alpha)},{n_final}"
    if spec.dimension == 1:
        for i, x in enumerate(grid.xs):
            for k, t in enumerate(grid.ts):
                a = approx[i, k]
                e = exact[i, k] if exact is not None else float("nan")
                points.append(f"{prefix},{_f(x)},{_f(t)},{_f(a)},{_f(e)},"
                              f"{_f(abs(a - e))}")
    else:
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                for k, t in enumerate(grid.ts):
                    a = approx[i, j, k]
                    e = exact[i, j, k] if exact is not None else float("nan")
                    points.append(f"{prefix},{_f(x)},{_f(y)},{_f(t)},{_f(a)},"
                                  f"{_f(e)},{_f(abs(a - e))}")

    summary: List[str] = []
    table: List[str] = []
    for row in convergence_report([trace], spec, grid):
        max_abs = float("nan") if row.max_abs is None else row.max_abs
        l2 = float("nan") if row.l2 is None else row.l2
        summary.append(f"{row.method},{_f(row.alpha)},{row.iterations},"
                       f"{_f(max_abs)},{_f(l2)},{_f(row.residual)},"
                       f"{row.seconds:.3f}")
        table.append(f"{row.method:<5s} {row.alpha:<5g} {row.iterations:>2d}  "
                     f"{max_abs:10.3e}  {l2:10.3e}  {row.residual:10.3e}  "
                     f"{row.seconds:8.3f}")

    # final-time profile along x (2D: sliced at the middle y line)
    t_last = float(grid.ts[-1])
    if spec.dimension == 1:
        label = f"# {spec.pid} {method} alpha={alpha:g} iters={n_final} t={t_last:g}"
        prof_a, prof_e = approx[:, -1], (exact[:, -1] if exact is not None else None)
    else:
        j_mid = grid.ys.size // 2
        label = (f"# {spec.pid} {method} alpha={alpha:g} iters={n_final} "
                 f"t={t_last:g} y={float(grid.ys[j_mid]):g}")
        prof_a = approx[:, j_mid, -1]
        prof_e = exact[:, j_mid, -1] if exact is not None else None
    lines = [label]
    for i, x in enumerate(grid.xs):
        if prof_e is None:
            lines.append(f"{_f(x)} {_f(prof_a[i])}")
        else:
            lines.append(f"{_f(x)} {_f(prof_a[i])} {_f(prof_e[i])}")

    return {"points": points, "summary": summary, "table": table,
            "curve": "\n".join(lines), "truncated": trace.truncated,
            "method": method, "alpha": alpha}


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Series solvers for time-fractional initial-boundary value problems."""


@main.command("solve")
@click.option("--problem", "-p", help="builtin problem id (see 'list')")
@click.option("--file", "-f", "file_", type=click.Path(), help="problem definition file")
@click.option("--alpha", "-a", "alpha_", help="comma-separated orders in (0, 1]")
@click.option("--method", "-m", type=click.Choice(["ladm", "mldm", "both"]),
              default=None, help="classical, boundary-corrected, or both")
@click.option("--iters", "-n", type=int, default=None, help="iterations beyond u_0")
@click.option("--mode", type=click.Choice(list(problems.MODES)), default=None,
              help="source mode: manufactured (consistent) or paper-literal")
@click.option("--weights", type=click.Choice(["normalized", "paper-literal"]),
              default=None, help="boundary correction weight family")
@click.option("--grid", "grid_", help="point counts: nx,nt or nx,ny,nt")
@click.option("--tmax", type=float, default=None, help="end of the time window")
@click.option("--out", "-o", envvar="FRACDECOMP_OUT", default=None,
              help="output directory (env FRACDECOMP_OUT)")
@click.option("--jobs", "-j", type=int, default=None,
              help="worker processes for (alpha, method) fan-out")
@click.option("--allow-inconsistent", is_flag=True, default=False,
              help="solve paper-literal problems even when the audit flags them")
@click.option("--config", "-c", "config_", type=click.Path(),
              help="key = value defaults, overridden by flags")
def cmd_solve(problem, file_, alpha_, method, iters, mode, weights, grid_, tmax,
              out, jobs, allow_inconsistent, config_):
    """Solve a problem and write points.csv, summary.csv and plot.dat."""
    try:
        cfg = _read_config(config_) if config_ else {}
        problem = _pick(problem, cfg, "problem", None, str)
        file_ = _pick(file_, cfg, "file", None, str)
        alphas = _parse_alphas(_pick(alpha_, cfg, "alpha", "1.0", str))
        method = _pick(method, cfg, "method", "mldm", str)
        iters = _pick(iters, cfg, "iters", 3, int)
        mode = _pick(mode, cfg, "mode", "manufactured", str)
        weights = _pick(weights, cfg, "weights", "normalized", str)
        grid_text = _pick(grid_, cfg, "grid", None, str)
        counts = _parse_grid(grid_text) if grid_text else None
        tmax = _pick(tmax, cfg, "tmax", DEFAULT_TMAX, float)
        out = _pick(out, cfg, "out", "out", str)
        jobs = _pick(jobs, cfg, "jobs", 1, int)
        allow_inconsistent = allow_inconsistent or _pick(None, cfg,
                                                         "allow_inconsistent",
                                                         False, _bool)

        if method not in ("ladm", "mldm", "both"):
            raise ProblemError(f"unknown method {method!r}")
        if mode not in problems.MODES:
            raise ProblemError(f"unknown mode {mode!r}")
        if weights not in ("normalized", "paper-literal"):
            raise ProblemError(f"unknown weights {weights!r}")
        if iters < 0:
            raise ProblemError(f"iters must be >= 0, got {iters}")
        if tmax <= 0.0:
            raise ProblemError(f"tmax must be positive, got {tmax:g}")
        if jobs < 1:
            raise ProblemError(f"jobs must be >= 1, got {jobs}")
        if (problem is None) == (file_ is None):
            raise ProblemError("give exactly one of --problem or --file")
        kind, ident = ("builtin", problem) if problem else ("file", file_)

        # build every spec up front: input errors surface here, and the
        # consistency gate must run before any solving starts
        specs = [_build_spec(kind, ident, a, mode) for a in alphas]
        for spec in specs:
            report = problems.validate_consistency(spec)
            if spec.mode == "paper-literal" and not allow_inconsistent \
                    and report.consistent is False:
                click.echo(f"{spec.pid} alpha={spec.alpha:g}: {report.summary()}",
                           err=True)
                if report.detail:
                    click.echo(report.detail, err=True)
                click.echo("pass --allow-inconsistent to solve it as printed",
                           err=True)
                raise SystemExit(EXIT_GATE)
    except GrammarError as exc:
        _fail(EXIT_INPUT, exc.pointer())
    except (ProblemError, DecompError, SeriesError, EvalError, ValueError) as exc:
        _fail(EXIT_INPUT, str(exc))

    methods = ["ladm", "mldm"] if method == "both" else [method]
    packed = [(kind, ident, a, m, iters, mode, weights, counts, tmax)
              for a in alphas for m in methods]
    try:
        if jobs > 1 and len(packed) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_run_job, packed))
        else:
            results = [_run_job(p) for p in packed]
    except GrammarError as exc:
        _fail(EXIT_INPUT, exc.pointer())
    except (ProblemError, DecompError, SeriesError, EvalError) as exc:
        _fail(EXIT_INPUT, str(exc))

    dimension = specs[0].dimension
    point_header = ("method,alpha,iterations,x,t,approx,exact,abs_error"
                    if dimension == 1 else
                    "method,alpha,iterations,x,y,t,approx,exact,abs_error")
    summary_header = "method,alpha,iterations,max_abs,l2,residual,seconds"

    os.makedirs(out, exist_ok=True)
    points_path = os.path.join(out, "points.csv")
    summary_path = os.path.join(out, "summary.csv")
    plot_path = os.path.join(out, "plot.dat")
    with open(points_path, "w") as fh:
        fh.write(point_header + "\n")
        for r in results:
            fh.write("\n".join(r["points"]) + "\n")
    with open(summary_path, "w") as fh:
        fh.write(summary_header + "\n")
        for r in results:
            fh.write("\n".join(r["summary"]) + "\n")
    with open(plot_path, "w") as fh:
        fh.write("\n\n".join(r["curve"] for r in results) + "\n")

    click.echo(f"{'meth':<5s} {'alpha':<5s} {'n':>2s}  {'max_abs':>10s}  "
               f"{'l2':>10s}  {'residual':>10s}  {'seconds':>8s}")
    for r in results:
        for line in r["table"]:
            click.echo(line)
        if r["truncated"]:
            click.echo(f"warning: {r['method']} alpha={r['alpha']:g} hit the "
                       "term caps; series truncated, results incomplete",
                       err=True)
    click.echo(f"wrote {points_path}, {summary_path}, {plot_path}")


@main.command("list")
def cmd_list():
    """Tabulate the builtin problems with their consistency audit."""
    click.echo("builtin problems (sources audited as printed, at alpha=0.7):")
    rows = []
    for pid in problems.PROBLEM_IDS:
        spec = problems.builtin(pid, 0.7, "paper-literal")
        report = problems.validate_consistency(spec)
        rows.append((pid, f"{spec.dimension}D", report.summary(),
                     spec.describe_operator(), spec.title))
    width = max(len(r[2]) for r in rows)
    op_width = max(len(r[3]) for r in rows)
    for pid, dim, status, op, title in rows:
        click.echo(f"  {pid}  {dim}  {status:<{width}s}  {op:<{op_width}s}  {title}")


@main.command("verify")
@click.option("--only", help="comma-separated check names (see run output)")
@click.option("--quad-tol", type=float, default=None,
              help="override the power-rule tolerance (default 1e-8)")
def cmd_verify(only, quad_tol):
    """Run the self-check suite; exit 1 if any check fails."""
    names: Optional[Tuple[str, ...]] = None
    if only:
        names = tuple(s.strip() for s in only.split(",") if s.strip())
    try:
        results = acceptance.run_all(
            only=names,
            quad_tol=acceptance.POWER_RULE_TOL if quad_tol is None else quad_tol,
            echo=click.echo)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    if not results:
        _fail(EXIT_INPUT, "no checks selected")
    failed = [r for r in results if not r.passed]
    if failed:
        click.echo(f"{len(failed)} of {len(results)} checks failed: "
                   + ", ".join(r.name for r in failed))
        raise SystemExit(EXIT_VERIFY)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
