"""The span tracer in perfbench/ must find every traced name in the package
and pass a whole traced solve through."""

import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# spans.install raises when a traced function is bound in no package module,
# which would fail every traced benchmark solve
INSTALL = ("import sys; sys.path.insert(0, 'perfbench'); import spans; "
           "spans.install(spans.Recorder())")


def test_span_tracer_installs():
    env = dict(os.environ, PYTHONPATH="src")
    r = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


def test_traced_solve_runs_both_methods(tmp_path):
    # a whole traced solve through the span tracer: every wrapper must pass
    # the solver's calls through, and the solve and residual layers must
    # show up as spans
    env = dict(os.environ, PYTHONPATH="src")
    counters = tmp_path / "counters.json"
    cmd = [sys.executable, os.path.join("perfbench", "spans.py"),
           str(tmp_path / "spans.npz"), str(counters),
           "solve", "-p", "p7", "-m", "both", "-n", "1", "-o", str(tmp_path / "out")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    names = json.loads(counters.read_text())["names"]
    for name in ("decomp.ladm_solve", "decomp.mldm_solve", "evaluation.residual"):
        assert name in names, name
    # a name is registered when its wrapper is installed; the report's
    # residuals must also have been recorded as spans
    name_idx = np.load(tmp_path / "spans.npz")["name_idx"]
    assert np.count_nonzero(name_idx == names.index("evaluation.residual")) >= 1
