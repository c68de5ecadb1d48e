#!/usr/bin/env python3
"""Check that two source trees write the same solve outputs, list and verify lines.

    python3 tools/same_outputs.py OLD_ROOT NEW_ROOT [--env NAME=VALUE ...]

Each root is a checkout holding ``src/fracdecomp``. Each ``--env`` sets a
variable for every process run from NEW_ROOT only, so one tree can be
compared with itself under another setting, for example another BLAS
kernel:

    python3 tools/same_outputs.py . . --env OPENBLAS_CORETYPE=Prescott

Both run the same solves (``CASES``, paper-literal modes and weights
among them, and each problem file of ``FILE_CASES`` written to the
temporary directory and solved with its arguments) in fresh interpreters with
``PYTHONPATH=ROOT/src``, each into a directory of its own under a
temporary directory. points.csv and plot.dat must be equal byte for byte,
summary.csv with its wall-clock ``seconds`` column masked, and every solve
must exit with the same code; a solve that exits 2 (an input error) must
print the same stderr. Each difference is printed; where an output
file differs, so are the columns that moved and the worst relative gap
|new - old| / |old| in each, with the line it is on, and the largest change
|new - old| against the column's largest |old|. Then both roots run
``fracdecomp list`` and ``fracdecomp verify``: for each, the exit codes
must agree, and so must every output line once its timings (``1.23s``) are
masked; each line that differs is printed from both sides. The exit code
is 1 if there is any difference, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = [["-p", f"p{i}", "-m", "both", "-n", "4", "-a", "0.5,0.75,1.0"]
         for i in range(1, 8)]
# with the 0.75 of the cases above, every order the benchmark solves
CASES.append(["-p", "p7", "-m", "ladm", "-n", "8", "-a", "0.73,0.75,0.77"])
CASES.append(["-p", "p7", "-m", "mldm", "-n", "4", "-a", "0.78,0.79"])
# the printed source, initial trace and faces: p5's are consistent, p1's
# source is not and solves only with the override, p4 is the one builtin
# whose printed initial trace (x^2) is not zero, and p2's are the only
# printed box faces (bc.x0 ... bc.y1)
CASES.append(["-p", "p5", "--mode", "paper-literal", "-m", "both", "-n", "2"])
CASES.append(["-p", "p2", "--mode", "paper-literal", "-m", "both", "-n", "2",
              "-a", "0.5,1.0"])
CASES.append(["-p", "p1", "--mode", "paper-literal", "--allow-inconsistent",
              "-m", "both", "-n", "2"])
CASES.append(["-p", "p4", "--mode", "paper-literal", "--allow-inconsistent",
              "-m", "both", "-n", "2"])
# the paper-literal blending weights (1 - x, x), which boundary_correct
# returns unpolished: p2's box [0, 2]^2 is where they do not interpolate,
# and p7 is nonlinear
CASES += [["-p", pid, "-m", "mldm", "-n", "3", "--weights", "paper-literal"]
          for pid in ("p2", "p7")]

# No builtin is both 2D and nonlinear. This problem file takes y-derivatives
# in its nonlinearity, a cubic and a time-dependent coefficient; it must
# match TWO_D_FILE of tests/test_evaluation.py (tests/test_tools.py checks
# this copy and the two below). Past -n 1 it is slow.
TWO_D_FILE = """\
domain = 0, 1
domain_y = 0, 1
exact = t*x*y + t^2*x
linear = 2x:-0.5, 2y:-0.5
nonlinear = u*u_y + 0.5*u^2*u_x - {t^alpha}*u_xx
"""
TWO_D_ARGS = ["-m", "both", "-n", "1", "-a", "0.5,1.0"]

# Squaring x*sin(pi*x) gives x^2*sin(pi*x)^2, which no Fourier-pair product
# covers: the generic product rewrites it onto multiple angles
# (symx._linearize_mono). No builtin reaches that rewrite. It must match
# TRIG_FILE of tests/test_symx_linearize.py.
TRIG_FILE = """\
domain = 0, 1
exact = t^alpha*x*sin(pi*x) + t*x*(1 - x)
linear = 2x:-0.1
nonlinear = u^2
"""
TRIG_ARGS = ["-m", "both", "-n", "2", "-a", "0.5,0.75,1.0"]

# The residual of this file takes u_xx, whose factor row 0.75*x^-0.5 has no
# value at x = 0, so every solve of it exits 2 with the one line of the
# first factor that raises. It must match the "uxx_three_halves" case of
# POLE_CASES in tests/test_evaluation.py.
POLE_FILE = """\
domain = 0, 1
exact = t*x^1.5
nonlinear = u*u_xx
"""
POLE_ARGS = ["-m", "both", "-n", "1", "-a", "0.5"]

# Degree-3 ladm: a cubic keeps every grade of its first product before the
# last, so each A_n sums products over several pairs per grade. On Fourier
# coefficients those grades run on the harmonic kernel ...
CUBIC_TRIG_FILE = """\
domain = 0, 1
exact = t*sin(pi*x)
nonlinear = u^2*u_xx
"""
CUBIC_TRIG_ARGS = ["-m", "ladm", "-n", "4", "-a", "0.5,1.0"]

# ... and on polynomial ones through the generic product.
CUBIC_POLY_FILE = """\
domain = 0, 1
exact = t*x*(1 - x) + t^alpha*x^2
linear = 2x:-0.5
nonlinear = 0.5*u^2*u_x
"""
CUBIC_POLY_ARGS = ["-m", "ladm", "-n", "3", "-a", "0.5,1.0"]

# 1e300*x^200 overflows on the zero-check box (0, 2), so its zero checks
# read inf samples, and its grid values and derivatives near the float range
# at x = 1; the solve still writes its files. It is the (0, 1) file of
# test_solve_whose_samples_overflow_raises_no_warning in tests/test_cli.py.
OVERFLOW_FILE = """\
domain = 0, 1
exact = 1e300*t*x^200
"""
OVERFLOW_ARGS = ["-m", "both", "-n", "2", "-a", "0.5,1.0"]

# The 2D file once more with a worker pool: each job's spec and grid then
# reach a worker pickled, brace coefficient and cubic included.
FILE_CASES = (("cubic2d.txt", TWO_D_FILE, TWO_D_ARGS), ("trig.txt", TRIG_FILE, TRIG_ARGS),
              ("pole.txt", POLE_FILE, POLE_ARGS),
              ("cubic_trig.txt", CUBIC_TRIG_FILE, CUBIC_TRIG_ARGS),
              ("cubic_poly.txt", CUBIC_POLY_FILE, CUBIC_POLY_ARGS),
              ("overflow.txt", OVERFLOW_FILE, OVERFLOW_ARGS),
              ("cubic2d.txt", TWO_D_FILE, TWO_D_ARGS + ["-j", "2"]))

FILES = ("points.csv", "plot.dat", "summary.csv")

# a wall-clock figure in a verify line: the seconds column, or an over-budget note
SECONDS = re.compile(r"\b\d+\.\d+s\b")


def _solve(root: Path, extra, args, out: Path):
    """Exit code and stderr of one solve; the stderr of an exit other than
    0 or 2 (an input error's one line) is printed."""
    env = dict(os.environ, **extra, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "fracdecomp.cli", "solve", *args,
                           "-o", str(out)], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    err = proc.stderr.strip()
    if proc.returncode not in (0, 2):
        print(f"  {root}: exit {proc.returncode}: {err[-300:]}")
    return proc.returncode, err


def _command(root: Path, extra, command: str):
    """Exit code and output lines of ``fracdecomp COMMAND``, timings masked."""
    env = dict(os.environ, **extra, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "fracdecomp.cli", command], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, [SECONDS.sub("-s", line) for line in proc.stdout.splitlines()]


def _command_differences(sides, command: str) -> int:
    (code_old, old), (code_new, new) = (_command(*side, command) for side in sides)
    differ = 0
    if code_old != code_new:
        print(f"  {command} exit {code_old} vs {code_new}")
        differ += 1
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else "<missing>"
        b = new[i] if i < len(new) else "<missing>"
        if a != b:
            print(f"  - {a}\n  + {b}")
            differ += 1
    print(f"{command}: {len(old)} lines, exit {code_old}: "
          f"{'same' if not differ else f'{differ} differences'}")
    return differ


def _content(path: Path) -> bytes:
    if not path.exists():
        return b"<missing>"
    data = path.read_bytes()
    if path.name == "summary.csv":
        # the last column is wall-clock time
        data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
    return data


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _gap(old: str, new: str) -> float:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def _rows(path: Path):
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    return [line.split() for line in path.read_text().splitlines()]


def _moves(old: Path, new: Path) -> str:
    """The columns of an output file that differ (summary.csv's time column
    aside), each with its worst relative gap and the line it is on, and its
    largest change |new - old| against the column's largest |old|: a value
    near zero, such as the boundary trace of a sine, can move by a large
    relative gap while its change is one rounding of the column's scale."""
    rows_old, rows_new = _rows(old), _rows(new)
    if len(rows_old) != len(rows_new):
        return f"line count differs ({len(rows_old)} vs {len(rows_new)})"
    head = rows_old[0] if old.suffix == ".csv" else None
    timed = old.name == "summary.csv"
    worst = {}
    for i, (ro, rn) in enumerate(zip(rows_old, rows_new), 1):
        if len(ro) != len(rn):
            return f"line {i} has {len(ro)} vs {len(rn)} fields"
        for j, a in enumerate(ro[:-1] if timed else ro):
            if a != rn[j]:
                name = head[j] if head else f"column {j + 1}"
                gap, step = _gap(a, rn[j]), abs(_number(rn[j]) - _number(a))
                got = worst.setdefault(name, [0.0, "", j, 0.0])
                if gap >= got[0]:
                    got[:2] = gap, f"line {i} ({' '.join(ro[:3])})"
                got[3] = max(got[3], step)
    out = []
    for name, (gap, where, j, step) in worst.items():
        top = max((abs(v) for v in (_number(r[j]) for r in rows_old if j < len(r))
                   if not math.isnan(v)), default=0.0)
        out.append(f"{name} worst relative gap {gap:.1e} at {where}, "
                   f"largest change {step:.1e} against a column max {top:.1e}")
    return ", ".join(out)


def _assignment(text: str):
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main(argv) -> int:
    ap = argparse.ArgumentParser(prog="same_outputs.py",
                                 description="Compare the solve outputs, list and "
                                             "verify lines of two source trees.")
    ap.add_argument("old_root")
    ap.add_argument("new_root")
    ap.add_argument("--env", type=_assignment, action="append", default=[],
                    metavar="NAME=VALUE",
                    help="set in the environment of every NEW_ROOT process; repeatable")
    opts = ap.parse_args(argv)
    roots = [Path(a).resolve() for a in (opts.old_root, opts.new_root)]
    for root in roots:
        if not (root / "src" / "fracdecomp").is_dir():
            print(f"{root}: no src/fracdecomp", file=sys.stderr)
            return 2
    sides = list(zip(roots, ({}, dict(opts.env))))
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        cases = list(CASES)
        for name, text, args in FILE_CASES:
            path = Path(tmp) / name
            path.write_text(text)
            cases.append(["--file", str(path), *args])
        for n, args in enumerate(cases):
            outs = [Path(tmp) / f"{side}{n}" for side in ("old", "new")]
            (code_old, err_old), (code_new, err_new) = (
                _solve(*side, args, out) for side, out in zip(sides, outs))
            found = [] if code_old == code_new else [f"exit {code_old} vs {code_new}"]
            if code_old == code_new == 2 and err_old != err_new:
                found.append(f"stderr differs ({err_old!r} vs {err_new!r})")
            for name in FILES:
                if _content(outs[0] / name) != _content(outs[1] / name):
                    moved = (_moves(outs[0] / name, outs[1] / name)
                             if code_old == code_new == 0 else "")
                    found.append(f"{name} differs" + (f" ({moved})" if moved else ""))
            same = f"same, exit 2: {err_old}" if code_old == 2 else "same"
            print(f"solve {' '.join(args)}: {', '.join(found) if found else same}")
            differ += len(found)
    for command in ("list", "verify"):
        differ += _command_differences(sides, command)
    print(f"{len(cases)} solves, list and verify, {differ} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
