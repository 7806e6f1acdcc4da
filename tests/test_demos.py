"""Every demo script runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path, subprocess_env):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=subprocess_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
