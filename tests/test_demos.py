"""The demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = [
    "01_exact_series_and_oracle.py",
    "02_moments_and_ospt.py",
    "03_asymptotics.py",
    "04_circle_method.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
