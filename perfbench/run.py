"""Benchmark of ``fracdecomp solve``: end-to-end run time, set-up time, memory.

Run from the repository root:

    python3 perfbench/run.py --workload p7-mldm --seed 0 --seconds 60 --trace 0

Every timed solve is a fresh ``python3 -m fracdecomp.cli solve`` process with
``--jobs`` left at 1, so each pays symx's process-wide caches cold, as a CLI
user does. The solves run one after another (a closed loop with one client)
until the next would end after ``--seconds``; every run's output files are
checked against the reference recorded by ``record_reference.py``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall seconds
of a whole solve process), ``setup_s`` (median over several fresh
interpreters of importing ``fracdecomp.cli`` and building and auditing the
workload's specs) and ``peak_rss_mb`` (median peak RSS of a solve process).
``--trace 1`` alternates untraced solves with solves traced by ``spans.py``
and reports the per-layer metrics in ``PER_LAYER``, medians over the traced
solves.

On a shared host the CPU speed drifts by tens of percent over minutes, so a
run measures for long enough to average over that drift, and its set-up
probes are spread evenly over the run so that they see the same host speed
as the solves.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
spans and a full report of the last run stay in ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from outputs import FILES, Reference, Verdict  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
SOLVE_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_work"


# Per-layer metrics of the traced run, as (name, unit); "_s" is self seconds
# (span duration minus child spans) and "_calls" a call count. Lower is better
# except where HIGHER_IS_BETTER says otherwise.
PER_LAYER_UNITS = (
    ("symx.poly_mul_s", "s"), ("symx.poly_mul_calls", "count"),
    ("symx.poly_add_s", "s"), ("symx.poly_add_calls", "count"),
    ("symx.expr_of_poly_s", "s"), ("symx.expr_of_poly_calls", "count"),
    ("symx.is_zero_expr_s", "s"), ("symx.is_zero_expr_calls", "count"),
    ("symx.diff_s", "s"), ("symx.poly_substitute_s", "s"), ("symx.evaluate_s", "s"),
    ("symx.poly_of_s", "s"),
    ("fracterm.series_mul_s", "s"), ("fracterm.series_mul_calls", "count"),
    ("fracterm.series_add_s", "s"), ("fracterm.series_add_calls", "count"),
    ("fracterm.series_scale_s", "s"), ("fracterm.spatial_apply_s", "s"),
    ("fracterm.series_substitute_s", "s"), ("fracterm.frac_integral_s", "s"),
    ("fracterm.caputo_s", "s"), ("fracterm.terms_out", "count"),
    ("decomp.boundary_correct_s", "s"), ("decomp.boundary_correct_calls", "count"),
    ("decomp.adomian_polys_s", "s"), ("decomp.adomian_polys_calls", "count"),
    ("decomp.nonlinear_apply_s", "s"), ("decomp.nonlinear_apply_calls", "count"),
    ("decomp.linear_apply_s", "s"), ("decomp.mldm_solve_s", "s"),
    ("decomp.ladm_solve_s", "s"),
    ("decomp.final_terms", "count"), ("decomp.final_monomials", "count"),
    ("decomp.final_max_mu", "exponent"), ("decomp.poly_max_monomials", "count"),
    ("decomp.iterations_done", "count"), ("decomp.truncated", "count"),
    ("evaluation.residual_s", "s"), ("evaluation.residual_calls", "count"),
    ("evaluation.evaluate_series_grid_s", "s"), ("evaluation.grid_error_s", "s"),
    ("evaluation.convergence_report_s", "s"),
    ("cli.self_s", "s"), ("cli.rows_written", "count"), ("cli.bytes_written", "B"),
    ("problems.builtin_s", "s"), ("problems.validate_consistency_s", "s"),
    ("trace_overhead_s", "s"), ("trace_root_s", "s"),
    ("failed_ops", "share"), ("bytes_identical", "count"),
)
HIGHER_IS_BETTER = {"decomp.iterations_done", "cli.rows_written", "bytes_identical"}
PER_LAYER = tuple({"name": name, "unit": unit,
                   "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
                  for name, unit in PER_LAYER_UNITS)


class SetupError(Exception):
    pass


@dataclass
class Sample:
    """One solve process: its wall time, peak RSS and the output check."""

    traced: bool
    wall_s: float
    rss_mb: float
    code: int
    error: str = ""
    identical: bool = False
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.error)



def run_process(cmd: List[str], env: Dict[str, str], cwd: str, stderr_path: str,
                timeout: float = SOLVE_TIMEOUT_S):
    """Wall seconds, peak RSS in MB and exit code of one child process.

    The child is reaped with wait4 so its rusage is its own; a child still
    running after ``timeout`` is killed and reported with its signal.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _last_line(path: str) -> str:
    with open(path, errors="replace") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


class Harness:
    """Runs solves of one command line in fresh processes and checks them."""

    def __init__(self, root: str, solve_args: List[str], work: str,
                 check: Callable[[str], Verdict]):
        self.root = root
        self.solve_args = solve_args
        self.work = work
        self.check = check
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.samples: List[Sample] = []

    def solve(self, traced: bool = False) -> Sample:
        k = len(self.samples)
        out = os.path.join(self.work, f"out{k}")
        if traced:
            spans_path = os.path.join(self.work, f"spans{k}.npz")
            counters_path = os.path.join(self.work, f"counters{k}.json")
            head = [sys.executable, os.path.join(HERE, "spans.py"), spans_path,
                    counters_path]
        else:
            head = [sys.executable, "-m", "fracdecomp.cli"]
        cmd = head + ["solve", *self.solve_args, "-o", out]
        stderr_path = os.path.join(self.work, f"stderr{k}.txt")
        wall, rss, code = run_process(cmd, self.env, self.root, stderr_path)
        sample = Sample(traced, wall, rss, code)
        if code != 0:
            sample.error = f"exit {code}: {_last_line(stderr_path)}"
        else:
            verdict = self.check(out)
            sample.identical = verdict.identical
            sample.error = "" if verdict.ok else f"output check: {verdict.reason}"
            if traced:
                sample.layers = traced_layers(spans_path, counters_path, out)
        shutil.rmtree(out, ignore_errors=True)
        self.samples.append(sample)
        return sample

    def repeat(self, step: Callable[[], None], seconds: float, min_steps: int = 1) -> None:
        """Call step until another call would end after ``seconds``."""
        t0 = time.perf_counter()
        steps = 0
        while True:
            step()
            steps += 1
            elapsed = time.perf_counter() - t0
            if steps >= min_steps and elapsed + elapsed / steps > seconds:
                return

    def setup_probe(self, problem: str, orders) -> float:
        """Seconds of set-up measured in one fresh interpreter."""
        cmd = [sys.executable, os.path.join(HERE, "probe_setup.py"), problem, *orders]
        done = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=SOLVE_TIMEOUT_S)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        return float(done.stdout.split()[-1])


def traced_layers(spans_path: str, counters_path: str, out_dir: str) -> Dict[str, float]:
    """Per-layer metrics of one traced solve, keyed as in PER_LAYER."""
    with open(counters_path) as fh:
        counters = json.load(fh)
    per_span = spans.layer_metrics(spans_path, counters["names"])
    values: Dict[str, float] = {}
    for name, m in per_span.items():
        key = "cli.self" if name == spans.ROOT else name
        values[f"{key}_s"] = m["self_s"]
        values[f"{key}_calls"] = m["calls"]
    values["trace_root_s"] = per_span[spans.ROOT]["span_s"]
    values["fracterm.terms_out"] = counters["terms_out"]
    for key, value in counters["sizes"].items():
        values[f"decomp.{key}"] = value
    with open(os.path.join(out_dir, "points.csv"), "rb") as fh:
        values["cli.rows_written"] = sum(1 for _ in fh) - 1
    values["cli.bytes_written"] = sum(os.path.getsize(os.path.join(out_dir, f))
                                      for f in FILES)
    return values


def tail_text(values: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"no tail percentile above the median: {n} samples, needs 20"
    pct = math.floor(100.0 * (n - 10) / n)
    return f"p{pct} {sorted(values)[n - 11]:.4f} s"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: str, *args: str) -> Optional[str]:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: str, seed: int) -> Dict[str, object]:
    sha = _git(root, "rev-parse", "HEAD")
    dirty = _git(root, "status", "--porcelain", "--untracked-files=no")
    info: Dict[str, object] = {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": None if dirty is None else bool(dirty),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
    }
    for pkg in ("numpy", "scipy", "click"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = "missing"
    return info


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so run_process kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracdecomp", "cli.py")):
        print("perfbench: run from the repository root (src/fracdecomp/cli.py "
              "not found)", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    orders = wl.pick(args.seed)
    solve_args = wl.solve_args(args.seed)
    ref = Reference(wl.name)
    if ",".join(orders) not in ref.meta["choices"]:
        print(f"perfbench: no reference outputs for {wl.name} {orders}", file=sys.stderr)
        return 2

    work = os.path.join(root, WORK_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    prov = provenance(root, args.seed)
    print(f"# provenance {json.dumps(prov)}")
    print(f"# workload {wl.name} seed {args.seed}: fracdecomp solve {' '.join(solve_args)}")

    harness = Harness(root, solve_args, work, lambda out: ref.check(out, orders))
    metrics: Dict[str, Dict[str, object]] = {}
    try:
        if args.trace:
            # untraced and traced solves alternate, so both see the same load
            harness.repeat(lambda: harness.solve(traced=len(harness.samples) % 2 == 1),
                           args.seconds, min_steps=2)
        else:
            harness.setup_probe(wl.problem, orders)   # warm-up; compiles the bytecode
            setup: List[float] = []
            t0 = time.perf_counter()

            def probe_then_solve():
                # set-up probes are spread evenly over the run, so they see the
                # same host speed as the solves
                elapsed = time.perf_counter() - t0
                while (len(setup) < SETUP_PROBES
                       and elapsed >= len(setup) * args.seconds / SETUP_PROBES):
                    setup.append(harness.setup_probe(wl.problem, orders))
                harness.solve()

            harness.repeat(probe_then_solve, args.seconds)
            while len(setup) < SETUP_PROBES:
                setup.append(harness.setup_probe(wl.problem, orders))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    samples = harness.samples
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    failed = [s for s in samples if s.failed]
    for k, s in enumerate(samples):
        state = s.error or ("identical" if s.identical else "within tolerance")
        print(f"# solve {k}{' traced' if s.traced else ''}: {s.wall_s:.4f} s, "
              f"{s.rss_mb:.1f} MB, {state}")
        if s.layers:
            self_sum = sum(v for name, v in s.layers.items()
                           if name.endswith("_s") and name != "trace_root_s")
            print(f"#   layer self times sum to {self_sum:.6f} s, "
                  f"root span {s.layers['trace_root_s']:.6f} s")
    walls = [s.wall_s for s in plain]
    failed_share = len(failed) / len(samples)
    identical = sum(s.identical for s in samples)
    if args.trace:
        for spec in PER_LAYER:
            name = spec["name"]
            if name == "trace_overhead_s":
                value = (statistics.median(s.wall_s for s in traced)
                         - statistics.median(walls))
            elif name == "failed_ops":
                value = failed_share
            elif name == "bytes_identical":
                value = identical
            else:
                # no successful traced solve leaves 0.0, with correct false
                got = [s.layers.get(name, 0.0) for s in traced if s.layers]
                value = statistics.median(got) if got else 0.0
            metrics[name] = {"value": value, "unit": spec["unit"]}
    else:
        metrics["run_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(s.rss_mb for s in plain),
                                  "unit": "MB"}
        print(f"run_s           {metrics['run_s']['value']:.4f} s   median of "
              f"{len(walls)} solves; {tail_text(walls)}")
        print(f"setup_s         {metrics['setup_s']['value']:.4f} s   median of "
              f"{len(setup)} fresh interpreters")
        print(f"peak_rss_mb     {metrics['peak_rss_mb']['value']:.1f} MB  median of "
              f"{len(plain)} solves")
    print(f"failed_ops      {failed_share:.4f} share  {len(failed)} of {len(samples)} solves")
    print(f"bytes_identical {identical} count  of {len(samples)} solves")
    if args.trace:
        for spec in PER_LAYER:
            print(f"{spec['name']:<34s} {metrics[spec['name']]['value']:.6g} "
                  f"{spec['unit']}")
    prov["loadavg_after"] = list(os.getloadavg())
    print(f"# loadavg after {prov['loadavg_after']}")

    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump({"provenance": prov, "solve_args": solve_args,
                   "samples": [asdict(s) for s in samples], "metrics": metrics}, fh,
                  indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
