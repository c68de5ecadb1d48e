"""Check a solve's output files against the recorded reference.

A run passes when ``points.csv`` and ``plot.dat`` are byte-identical to the
reference and ``summary.csv`` is too once its wall-clock ``seconds`` column
is masked. A run that differs still passes when it has the same rows and
every ``approx`` value lies within ``TOLERANCE`` times that job's largest
reference |approx|. A missing file or a value out of tolerance fails.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

FILES = ("points.csv", "plot.dat", "summary.csv")
TOLERANCE = 1e-6
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    identical: bool
    reason: str = ""


def mask_wall_column(payload: bytes) -> bytes:
    """Blank the trailing seconds field of every summary row, as the package's
    determinism check does; kept here so the check does not move with the
    code under test."""
    lines = payload.decode().splitlines()
    out = [lines[0]] if lines else []
    for row in lines[1:]:
        head, _, _ = row.rpartition(",")
        out.append(head + ",-")
    return "\n".join(out).encode()


def digests(out_dir: str) -> Dict[str, str]:
    """sha256 of each output file, summary.csv with its wall column masked."""
    out = {}
    for name in FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            payload = fh.read()
        if name == "summary.csv":
            payload = mask_wall_column(payload)
        out[name] = hashlib.sha256(payload).hexdigest()
    return out


def approx_by_job(points_path: str) -> Tuple[Dict[str, np.ndarray], int]:
    """The approx column of points.csv per "method,alpha" job, and the row count."""
    jobs: Dict[str, List[float]] = {}
    rows = 0
    with open(points_path) as fh:
        col = fh.readline().rstrip("\n").split(",").index("approx")
        for line in fh:
            fields = line.split(",")
            jobs.setdefault(f"{fields[0]},{fields[1]}", []).append(float(fields[col]))
            rows += 1
    return {k: np.asarray(v) for k, v in jobs.items()}, rows


def summary_keys(summary_path: str) -> List[List[str]]:
    """method, alpha and iterations of every summary row."""
    with open(summary_path) as fh:
        return [line.split(",")[:3] for line in fh.read().splitlines()[1:]]


class Reference:
    """Recorded outputs of one workload: digests per order choice, approx per job."""

    def __init__(self, workload: str, ref_dir: str = REFERENCE_DIR):
        with open(os.path.join(ref_dir, f"{workload}.json")) as fh:
            self.meta = json.load(fh)
        with np.load(os.path.join(ref_dir, f"{workload}.npz")) as z:
            self.approx = {k: z[k] for k in z.files}

    def check(self, out_dir: str, orders: Tuple[str, ...]) -> Verdict:
        choice = self.meta["choices"][",".join(orders)]
        try:
            got = digests(out_dir)
        except FileNotFoundError as exc:
            return Verdict(False, False, f"missing output {os.path.basename(exc.filename)}")
        if got == choice["digests"]:
            return Verdict(True, True)
        jobs, rows = approx_by_job(os.path.join(out_dir, "points.csv"))
        if rows != choice["rows"] or list(jobs) != choice["jobs"]:
            return Verdict(False, False, "points.csv rows differ from the reference")
        if summary_keys(os.path.join(out_dir, "summary.csv")) != choice["summary_keys"]:
            return Verdict(False, False, "summary.csv rows differ from the reference")
        for job, values in jobs.items():
            ref = self.approx[job]
            if values.shape != ref.shape:
                return Verdict(False, False, f"{job}: row count differs from the reference")
            bound = TOLERANCE * float(np.max(np.abs(ref)))
            if not np.all(np.abs(values - ref) <= bound):
                worst = float(np.nanmax(np.abs(values - ref)))
                return Verdict(False, False,
                               f"{job}: approx off by {worst:.3g} > {bound:.3g}")
        return Verdict(True, False)
