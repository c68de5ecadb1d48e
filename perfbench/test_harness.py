"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_failing_solve_counts_one_failed_op(tmp_path):
    # p6 at n = 5 overflows the gamma function once mu passes ~171; the CLI
    # prints a traceback and exits 1
    def no_check(out):
        raise AssertionError("a failed solve must not reach the output check")

    harness = run.Harness(ROOT, ["-p", "p6", "-n", "5"], str(tmp_path), no_check)
    harness.repeat(harness.solve, 0.0)
    assert len(harness.samples) == 1
    sample = harness.samples[0]
    assert sample.failed and sample.code == 1
    assert "OverflowError" in sample.error


def _write_outputs(out, approx, seconds="0.123"):
    os.makedirs(out, exist_ok=True)
    rows = [f"mldm,0.5,1,{x},0.0,{a!r},0.0,0.0" for x, a in zip((0.0, 0.5, 1.0), approx)]
    with open(os.path.join(out, "points.csv"), "w") as fh:
        fh.write("method,alpha,iterations,x,t,approx,exact,abs_error\n"
                 + "\n".join(rows) + "\n")
    with open(os.path.join(out, "summary.csv"), "w") as fh:
        fh.write(f"method,alpha,iterations,max_abs,l2,residual,seconds\n"
                 f"mldm,0.5,1,0.0,0.0,0.0,{seconds}\n")
    with open(os.path.join(out, "plot.dat"), "w") as fh:
        fh.write("# p0 mldm\n0.0 1.0\n")


@pytest.fixture
def reference(tmp_path):
    ref_out = str(tmp_path / "ref")
    _write_outputs(ref_out, [1.0, 2.0, -4.0])
    jobs, rows = outputs.approx_by_job(os.path.join(ref_out, "points.csv"))
    meta = {"choices": {"0.5": {
        "digests": outputs.digests(ref_out), "rows": rows, "jobs": list(jobs),
        "summary_keys": outputs.summary_keys(os.path.join(ref_out, "summary.csv"))}}}
    with open(tmp_path / "w.json", "w") as fh:
        json.dump(meta, fh)
    np.savez(tmp_path / "w.npz", **jobs)
    return outputs.Reference("w", str(tmp_path))


@pytest.mark.parametrize("approx, seconds, ok, identical", [
    ([1.0, 2.0, -4.0], "9.999", True, True),         # wall column is masked
    ([1.0, 2.0 + 3e-6, -4.0], "0.123", True, False),  # within 1e-6 * 4
    ([1.0, 2.0 + 5e-6, -4.0], "0.123", False, False),
    ([1.0, float("nan"), -4.0], "0.123", False, False),
])
def test_output_check(tmp_path, reference, approx, seconds, ok, identical):
    out = str(tmp_path / "run")
    _write_outputs(out, approx, seconds)
    verdict = reference.check(out, ("0.5",))
    assert (verdict.ok, verdict.identical) == (ok, identical)


def test_missing_output_fails(tmp_path, reference):
    out = str(tmp_path / "run")
    _write_outputs(out, [1.0, 2.0, -4.0])
    os.remove(os.path.join(out, "plot.dat"))
    verdict = reference.check(out, ("0.5",))
    assert not verdict.ok and "plot.dat" in verdict.reason


def test_self_times_subtract_child_spans(tmp_path):
    # root [0, 10] holds a [1, 4] (with b [2, 3]) and a [5, 6]
    path = str(tmp_path / "s.npz")
    np.savez(path, name_idx=np.array([0, 1, 2, 1], dtype=np.int32),
             start=np.array([0.0, 1.0, 2.0, 5.0]), end=np.array([10.0, 4.0, 3.0, 6.0]),
             parent=np.array([-1, 0, 1, 0], dtype=np.int32))
    m = spans.layer_metrics(path, ["root", "a", "b"])
    assert m["root"]["self_s"] == 6.0 and m["a"]["self_s"] == 3.0
    assert m["b"]["self_s"] == 1.0 and m["a"]["calls"] == 2


def test_traced_solve_reports_every_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = str(tmp_path / "out")
    cmd = [sys.executable, os.path.join(HERE, "spans.py"), str(tmp_path / "s.npz"),
           str(tmp_path / "c.json"), "solve", "-p", "p6", "-m", "both", "-n", "2",
           "-a", "0.75", "-o", out]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    values = run.traced_layers(str(tmp_path / "s.npz"), str(tmp_path / "c.json"), out)
    layer_sum = sum(v for k, v in values.items() if k.endswith("_s") and k != "trace_root_s")
    assert layer_sum == pytest.approx(values["trace_root_s"], rel=1e-9)
    for name in ("fracterm.series_add_calls", "decomp.adomian_polys_calls",
                 "decomp.boundary_correct_calls", "evaluation.residual_calls"):
        assert values[name] > 0, name
    assert values["decomp.iterations_done"] == 4
    assert values["cli.rows_written"] == 2 * 41 * 21


def test_run_prints_end_to_end_result():
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "p7-ladm-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
    assert bench["per_layer"] == list(run.PER_LAYER)
    for wl in WORKLOADS.values():
        ref = outputs.Reference(wl.name)
        assert {",".join(o) for o in wl.orders} == set(ref.meta["choices"])
