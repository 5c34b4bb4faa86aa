"""Smoke tests: every demo runs clean."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import restfuzz

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(restfuzz.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_exits_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
