"""Every demo script runs to completion."""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the warnings pyproject.toml makes errors under pytest are errors here too
FILTERS = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
    "tool"]["pytest"]["ini_options"]["filterwarnings"]


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    warnings = [arg for f in FILTERS for arg in ("-W", f)]
    result = subprocess.run([sys.executable, *warnings, str(demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    # a warning raised in a destructor prints "Exception ignored" and exits 0
    assert result.returncode == 0 and result.stderr == "", result.stderr
