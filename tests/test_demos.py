"""Smoke test: the demos that call the population API run to completion.

Each demo runs in a subprocess from a temporary working directory, so
any file it writes lands there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_sampling_and_moments.py", "03_confidence_and_testing.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
