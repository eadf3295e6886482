"""The README's library quick start and command-line session run as written.

Each runs in a fresh directory against the source tree; the session runs
``hubsel`` as ``python -m hubsel.cli``, so it needs no installed entry point.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _first_block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_library_quick_start_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _first_block("Library quick start", "python")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert "skewness" in proc.stdout


@pytest.mark.skipif(shutil.which("bash") is None, reason="the session is a bash script")
def test_command_line_session_runs_and_writes_its_files(tmp_path):
    session = _first_block("Command line", "sh")
    script = (
        "set -e\n"
        'hubsel() { "$PYTHON" -m hubsel.cli "$@"; }\n'
        'python3() { "$PYTHON" "$@"; }\n' + session
    )
    proc = subprocess.run(
        ["bash", "-c", script], cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(ENV, PYTHON=sys.executable),
    )
    assert proc.returncode == 0, proc.stderr
    written = re.findall(r'open\("([^"]+)", "w"\)', session) + re.findall(r"--out (\S+)", session)
    assert len(written) == 6
    for name in written:
        path = tmp_path / name
        assert path.exists(), name
        assert path.stat().st_size if path.is_file() else any(path.iterdir()), name
    assert (tmp_path / "report" / "profile.csv").is_file()
    assert '"mean_subjective"' in proc.stdout
