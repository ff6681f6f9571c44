"""The benchmark's own self-check, run as the benchmark runs it: from the
repository root with `src` on the path. It drives the library API that
`perfbench/` calls, so a change to that API fails here first."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selfcheck_passes():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selfcheck.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
