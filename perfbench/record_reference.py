"""Record the reference outputs that ``run.py`` checks every solve against.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose outputs are the reference.
For every workload and every order choice it runs the solve once and stores
the file digests (summary.csv with its wall column masked), the row layout
and the approx column of each job. A job's approx values must not depend on
which other jobs share the command line; recording stops if they do.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from outputs import REFERENCE_DIR, approx_by_job, digests, summary_keys  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(root: str, wl) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True).stdout.strip()
    meta = {"workload": wl.name, "recorded_at": sha, "choices": {}}
    arrays = {}
    for orders in wl.orders:
        seed = wl.orders.index(orders)
        with tempfile.TemporaryDirectory() as out:
            subprocess.run([sys.executable, "-m", "fracdecomp.cli", "solve",
                            *wl.solve_args(seed), "-o", out], cwd=root, env=env,
                           check=True, stdout=subprocess.DEVNULL)
            jobs, rows = approx_by_job(os.path.join(out, "points.csv"))
            meta["choices"][",".join(orders)] = {
                "digests": digests(out), "rows": rows, "jobs": list(jobs),
                "summary_keys": summary_keys(os.path.join(out, "summary.csv"))}
        for job, values in jobs.items():
            if job in arrays and not np.array_equal(arrays[job], values):
                raise SystemExit(f"{wl.name}: job {job} depends on its command line")
            arrays[job] = values
        print(f"{wl.name} {','.join(orders)}: {rows} rows", flush=True)
    with open(os.path.join(REFERENCE_DIR, f"{wl.name}.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    np.savez_compressed(os.path.join(REFERENCE_DIR, f"{wl.name}.npz"), **arrays)


def main() -> None:
    root = os.getcwd()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    names = sys.argv[1:] or list(WORKLOADS)
    for name in names:
        record(root, WORKLOADS[name])


if __name__ == "__main__":
    main()
