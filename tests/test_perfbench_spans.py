"""The span tracer in perfbench/ must find every traced name in the package."""

import os
import subprocess
import sys

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
