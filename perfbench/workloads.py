"""The benchmark's workloads: which ``fracdecomp solve`` each one runs.

A workload fixes the problem, method and iteration count; its seed picks the
fractional orders from a fixed per-workload list (``seed % len(list)``), so
seed 0 always gives the first entry. The program receives only the resulting
command line. Why each workload is in the benchmark is recorded in
BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    method: str
    iters: int
    orders: Tuple[Tuple[str, ...], ...]   # one entry per seed class

    def pick(self, seed: int) -> Tuple[str, ...]:
        return self.orders[seed % len(self.orders)]

    def solve_args(self, seed: int) -> List[str]:
        """Arguments after ``fracdecomp solve`` (the output directory excluded)."""
        return ["-p", self.problem, "-m", self.method, "-n", str(self.iters),
                "-a", ",".join(self.pick(seed))]


# Each list holds orders whose solves took within 5% of alpha = 0.75 on the
# seed commit (median of three fresh processes per order; neighbouring orders
# such as 0.71 or 0.80 took up to 20% longer), so the seed varies the inputs
# without moving run_s.
WORKLOADS = {w.name: w for w in (
    Workload(
        "p7-mldm", "p7", "mldm", 4,
        (("0.75",), ("0.78",), ("0.79",))),
    Workload(
        "p7-ladm-deep", "p7", "ladm", 8,
        (("0.75",), ("0.73",), ("0.77",))),
)}
