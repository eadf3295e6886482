"""The demos run as scripts against the source tree.

No other test imports them, so a change to a public signature they call
would otherwise break them unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_hubness_rise.py", "02_profile_and_select.py", "03_rank_and_evaluate.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_quietly_and_writes_no_file(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""
    assert not list(tmp_path.iterdir())
