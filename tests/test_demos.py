"""Smoke test: the demos that call the population API, and the README's
library tour, run to completion.

Each runs in a subprocess from a temporary working directory, so any
file it writes lands there.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, cwd) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", ["01_sampling_and_moments.py", "03_confidence_and_testing.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    result = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_tour_runs(tmp_path):
    # A tour that names a removed public name fails here.
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", readme, re.S).group(1)
    result = run_python(["-W", "error", "-c", tour], tmp_path)
    assert result.returncode == 0, result.stderr
