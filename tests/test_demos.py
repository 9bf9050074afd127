"""The demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 03 only runs the soundness audit, which the acceptance suite covers, and
# takes about five times as long as the other four together
@pytest.mark.parametrize(
    "demo", ["01_commit_and_verify", "02_oblivious_transfer", "04_privacy_audit", "05_wire_sessions"]
)
def test_demo_exits_zero(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
