#!/usr/bin/env python3
"""Time one CLI command line in two source trees, in alternating pairs.

    python3 tools/paired_runs.py OLD_ROOT NEW_ROOT [--pairs N] -- ARGS ...

Each root is a checkout holding ``src/fracdecomp``. Every run is a fresh
``python -m fracdecomp.cli ARGS`` process with ``PYTHONPATH=ROOT/src``, run
from the current directory, so the ``-o`` of a solve is the caller's to give.
A pair runs both trees once; pair k runs OLD_ROOT first when k is even and
NEW_ROOT first when it is odd, so a drift of the host's speed falls on both
sides alike. A run that exits non-zero stops the tool with exit code 2.

Prints each side's median and quartiles of wall seconds, the median of the
paired differences NEW - OLD and the pairs NEW won (ties count for neither),
then one JSON line with the same figures and every run's seconds. Standard
library only.

    python3 tools/paired_runs.py ../parent . --pairs 10 -- \\
        solve -p p7 -m ladm -n 8 -a 0.73,0.75,0.77 -o /tmp/out
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _run(root: Path, args) -> float:
    """Wall seconds of one CLI process run from ROOT's sources."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fracdecomp.cli", *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}",
              file=sys.stderr)
        raise SystemExit(2)
    return seconds


def _spread(values):
    """Median and first and third quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv) -> int:
    ap = argparse.ArgumentParser(prog="paired_runs.py",
                                 description="Time a CLI command line in two source "
                                             "trees in alternating pairs.")
    ap.add_argument("old_root")
    ap.add_argument("new_root")
    ap.add_argument("--pairs", type=int, default=10, help="pairs to run (default 10)")
    ap.add_argument("args", nargs="+", help="the CLI's arguments, after --")
    opts = ap.parse_args(argv)
    if opts.pairs < 2:
        ap.error("--pairs must be at least 2")
    roots = [Path(a).resolve() for a in (opts.old_root, opts.new_root)]
    for root in roots:
        if not (root / "src" / "fracdecomp").is_dir():
            print(f"{root}: no src/fracdecomp", file=sys.stderr)
            return 2
    old, new = [], []
    for k in range(opts.pairs):
        if k % 2 == 0:
            old.append(_run(roots[0], opts.args))
            new.append(_run(roots[1], opts.args))
        else:
            new.append(_run(roots[1], opts.args))
            old.append(_run(roots[0], opts.args))
    diffs = [b - a for a, b in zip(old, new)]
    result = {"args": opts.args, "pairs": opts.pairs, "old": _spread(old),
              "new": _spread(new), "median_diff": statistics.median(diffs),
              "new_wins": sum(d < 0 for d in diffs), "old_wins": sum(d > 0 for d in diffs),
              "old_s": old, "new_s": new}
    for side in ("old", "new"):
        s = result[side]
        print(f"{side}: median {s['median']:.4f} s, quartiles {s['q1']:.4f} "
              f"{s['q3']:.4f} s")
    print(f"median NEW - OLD {result['median_diff']:+.4f} s; NEW won "
          f"{result['new_wins']} of {opts.pairs} pairs, OLD {result['old_wins']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
