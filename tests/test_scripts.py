"""Smoke test: each example script under scripts/ runs to completion."""

import os
import subprocess
import sys

import pytest

from folicurve import cli

SCRIPTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(SCRIPTS_DIR) if f.endswith(".py")))
def test_script_runs(script, tmp_path):
    # the child finds the package where this process imported it from
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS_DIR, script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
