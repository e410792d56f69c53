"""Smoke tests: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRANSFORMERS_DEMO = "04_transformers.py"


def _run(name: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_transformers_demo_runs():
    """The demo that saves and reloads a weight file."""
    assert "round-trips bit-exactly" in _run(TRANSFORMERS_DEMO).stdout


@pytest.mark.parametrize(
    "name", sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name != TRANSFORMERS_DEMO)
)
def test_demo_runs(name):
    assert _run(name).stdout
