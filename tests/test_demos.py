"""Smoke test: every script under demos/ runs to completion."""

import os
import subprocess
import sys

import pytest

import arcurves

SRC = os.path.dirname(os.path.dirname(arcurves.__file__))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


@pytest.mark.parametrize("script", sorted(
    name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          cwd=os.path.dirname(SRC), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
