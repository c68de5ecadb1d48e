"""Command line front end.

Three commands: ``solve`` runs a builtin or file-defined problem and writes
CSV plus plot-data artifacts, ``list`` tabulates the builtin benchmarks with
their consistency audit, ``verify`` runs the self-check suite. Exit codes
partition cleanly: 0 success, 1 verification failure, 2 input error,
3 consistency gate.

Every solve is deterministic: identical configuration yields byte-identical
points and plot files (the summary CSV's wall-clock column is the one
physical field). A solve builds one spec per alpha and one grid; the specs
pass the input checks and the consistency gate, and each (alpha, method)
job solves its spec as built on that grid. Jobs fan out over a process
pool when ``--jobs`` asks for it; results are reassembled in configuration
order, never completion order.
"""

from __future__ import annotations

import os
from itertools import repeat
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import click
import numpy as np

from . import problems
from .decomp import DecompError, ladm_solve, mldm_solve
from .evaluation import (
    DEFAULT_NT,
    DEFAULT_NX,
    DEFAULT_NY,
    DEFAULT_TMAX,
    EvalError,
    Grid,
    convergence_report,
    default_grid,
)
from .fracterm import SeriesError
from .grammar import GrammarError
from .problems import ProblemError
from .symx import ExprError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_GATE = 3

# Rows of points.csv one solve may write (grid points x alphas x methods).
# The largest builtin run on the default grid, p2 with three alphas and both
# methods, writes 211,806; every row is held in memory as text before the
# write, so a grid far past this cap would exhaust memory instead of failing.
MAX_OUTPUT_ROWS = 2_000_000


def _fail(code: int, message: str) -> None:
    click.echo(message, err=True)
    raise SystemExit(code)


def _f(v) -> str:
    """Shortest round-trip float text; identical in every run and process."""
    return repr(float(v))


# ---------------------------------------------------------------------------
# Configuration file and option values.
# ---------------------------------------------------------------------------


def _read_config(path: str, known: Tuple[str, ...]) -> Dict[str, str]:
    """key = value file, same fields as the flags; a section header is optional."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ProblemError(f"cannot read config {path}: {exc}") from None
    if not text.lstrip().startswith("["):
        text = "[solve]\n" + text
    # imported here: a run with no config file does not pay for it
    import configparser
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ProblemError(f"{path}: {exc}") from None
    merged: Dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser[section].items():
            key = key.replace("-", "_")
            if key not in known:
                raise ProblemError(f"{path}: unknown config key {key!r}; "
                                   f"known: {', '.join(known)}")
            merged[key] = value.strip()
    return merged


def _config_defaults(ctx: click.Context, param: click.Parameter, path: Optional[str]):
    """--config callback: the file's values become the command's defaults.

    Each value is converted by its own option's type, so a config value is
    checked exactly as its flag is, and a flag or environment variable still
    beats it (click's order: command line, environment, default map, default).
    """
    if path is None:
        return
    options = {p.name: p for p in ctx.command.params if p is not param}
    try:
        cfg = _read_config(path, tuple(options))
    except ProblemError as exc:
        _fail(EXIT_INPUT, str(exc))
    defaults = {}
    for key, text in cfg.items():
        option = options[key]
        try:
            defaults[key] = option.type.convert(text, option, ctx)
        except click.BadParameter as exc:
            _fail(EXIT_INPUT, f"config {key}: {exc.message}")
    ctx.default_map = defaults


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
        if a in out:
            raise ProblemError(f"alpha {a!r} is given twice")
        out.append(a)
    if not out:
        raise ProblemError("no alpha values given")
    return tuple(out)


def _grid_counts(text: Optional[str]) -> Tuple[int, int, int]:
    """(nx, ny, nt) from --grid's nx,nt or nx,ny,nt; ny is unused by 1D problems."""
    if not text:
        return DEFAULT_NX, DEFAULT_NY, DEFAULT_NT
    try:
        counts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ProblemError(f"bad grid {text!r}; expected nx,nt or nx,ny,nt") from None
    if len(counts) not in (2, 3) or any(c < 2 for c in counts):
        raise ProblemError(f"bad grid {text!r}; expected nx,nt or nx,ny,nt "
                           "with counts >= 2")
    return (counts[0], DEFAULT_NY, counts[1]) if len(counts) == 2 else counts


# ---------------------------------------------------------------------------
# Solve jobs. Each job gets the spec that passed the input checks and the run's
# one grid (a worker receives them pickled) and returns only strings, so
# assembly order is fixed by the configuration, not the pool.
# ---------------------------------------------------------------------------


def _build_spec(kind: str, ident: str, alpha: float, mode: str):
    if kind == "builtin":
        return problems.builtin(ident, alpha, mode)
    return problems.load_problem_file(ident, alpha, mode)


def _run_job(spec, method: str, iters: int, weights: str, grid: Grid) -> Dict[str, object]:
    if method == "mldm":
        trace = mldm_solve(spec, iters, weights=weights)
    else:
        trace = ladm_solve(spec, iters)
    # the report evaluates every series once; its last row holds the final
    # partial sum's grid and the exact grid the files are written from
    report = convergence_report([trace], spec, grid)
    approx, exact = report[-1].values, report[-1].exact

    n_final = trace.records[-1].n
    known = exact if exact is not None else np.full(approx.shape, float("nan"))
    # one text column per field, in row order: x outermost, then y, then t
    axes = (grid.xs, grid.ts) if spec.dimension == 1 else (grid.xs, grid.ys, grid.ts)
    fields = [*np.meshgrid(*axes, indexing="ij"), approx, known, np.abs(approx - known)]
    columns = [map(repr, f.ravel().tolist()) for f in fields]
    points = list(map(",".join, zip(repeat(f"{method},{_f(spec.alpha)},{n_final}"), *columns)))

    summary: List[str] = []
    table: List[str] = []
    for row in report:
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
        label = f"# {spec.pid} {method} alpha={spec.alpha:g} iters={n_final} t={t_last:g}"
        prof_a, prof_e = approx[:, -1], (exact[:, -1] if exact is not None else None)
    else:
        j_mid = grid.ys.size // 2
        label = (f"# {spec.pid} {method} alpha={spec.alpha:g} iters={n_final} "
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
            "method": method, "alpha": spec.alpha}


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Series solvers for time-fractional initial-boundary value problems."""


@main.command("solve")
@click.option("--problem", "-p", help="builtin problem id (see 'list')")
@click.option("--file", "-f", type=click.Path(), help="problem definition file")
@click.option("--alpha", "-a", help="comma-separated orders in (0, 1]")
@click.option("--method", "-m", type=click.Choice(["ladm", "mldm", "both"]),
              default="mldm", help="classical, boundary-corrected, or both")
@click.option("--iters", "-n", type=int, default=3, help="iterations beyond u_0")
@click.option("--mode", type=click.Choice(list(problems.MODES)), default="manufactured",
              help="source mode: manufactured (consistent) or paper-literal")
@click.option("--weights", type=click.Choice(["normalized", "paper-literal"]),
              default="normalized", help="boundary correction weight family")
@click.option("--grid", help="point counts: nx,nt or nx,ny,nt")
@click.option("--tmax", type=float, default=DEFAULT_TMAX, help="end of the time window")
@click.option("--out", "-o", envvar="FRACDECOMP_OUT", default="out",
              help="output directory (env FRACDECOMP_OUT)")
@click.option("--jobs", "-j", type=int, default=1,
              help="worker processes for (alpha, method) fan-out")
@click.option("--allow-inconsistent", is_flag=True, default=False,
              help="solve paper-literal problems even when the audit flags them")
@click.option("--config", "-c", type=click.Path(), is_eager=True, expose_value=False,
              callback=_config_defaults, help="key = value defaults, overridden by flags")
def cmd_solve(problem, file, alpha, method, iters, mode, weights, grid, tmax,
              out, jobs, allow_inconsistent):
    """Solve a problem and write points.csv, summary.csv and plot.dat."""
    try:
        nx, ny, nt = _grid_counts(grid)
        if iters < 0:
            raise ProblemError(f"iters must be >= 0, got {iters}")
        if not 0.0 < tmax < float("inf"):
            raise ProblemError(f"tmax must be positive and finite, got {tmax:g}")
        if jobs < 1:
            raise ProblemError(f"jobs must be >= 1, got {jobs}")
        if (problem is None) == (file is None):
            raise ProblemError("give exactly one of --problem or --file")
        kind, ident = ("builtin", problem) if problem else ("file", file)
        if alpha is not None:
            alphas = _parse_alphas(alpha)
        else:
            # a problem file's own alpha field, else 1.0
            own = problems.file_alpha(ident) if kind == "file" else None
            alphas = (1.0 if own is None else own,)

        # every spec is built once, here: input errors surface before any
        # solving starts, and the jobs solve the specs that passed the gate
        specs = [_build_spec(kind, ident, a, mode) for a in alphas]
        methods = ["ladm", "mldm"] if method == "both" else [method]
        points = nx * nt * (ny if specs[0].dimension == 2 else 1)
        rows = points * len(alphas) * len(methods)
        if rows > MAX_OUTPUT_ROWS:
            raise ProblemError(f"{points} grid points x {len(alphas)} alphas x "
                               f"{len(methods)} methods = {rows} output rows, over "
                               f"the limit of {MAX_OUTPUT_ROWS}; use a coarser --grid")
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

        # every alpha of a run shares the problem's domain, so one grid serves all
        lattice = default_grid(specs[0], nx, ny, nt, tmax=tmax)
        pairs = [(spec, m) for spec in specs for m in methods]
        args = (*zip(*pairs), repeat(iters), repeat(weights), repeat(lattice))
        if jobs > 1 and len(pairs) > 1:
            # imported here: a serial run does not pay for it
            import concurrent.futures
            # the fork start method launches every worker up front
            with concurrent.futures.ProcessPoolExecutor(min(jobs, len(pairs))) as pool:
                results = list(pool.map(_run_job, *args))
        else:
            results = list(map(_run_job, *args))
    except GrammarError as exc:
        _fail(EXIT_INPUT, exc.pointer())
    except (ProblemError, DecompError, SeriesError, EvalError, ValueError) as exc:
        _fail(EXIT_INPUT, str(exc))
    except ExprError as exc:
        # e.g. a face of the exact solution with no value on the boundary, or
        # a negative power of x met at x = 0 on the grid
        _fail(EXIT_INPUT, f"the series cannot be evaluated on the domain: {exc}")

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
def cmd_verify(only):
    """Run the self-check suite; exit 1 if any check fails."""
    # imported here: only verify needs the check suite, not a solve
    from . import acceptance

    names: Optional[Tuple[str, ...]] = None
    if only:
        names = tuple(s.strip() for s in only.split(",") if s.strip())
    try:
        results = acceptance.run_all(only=names, echo=click.echo)
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
