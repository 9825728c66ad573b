"""Smoke test: every demo script runs to completion.

Each demo is copied into a temporary directory and run there in a fresh
interpreter, so files it writes next to itself land in that directory.
A demo with a frozen stdout, ``tests/demo_stdout/<name>.txt``, must also
print it byte for byte: 05's was frozen at the commit before
``error_propagation_audit`` derived its stages and teachers itself.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
FROZEN_STDOUT = Path(__file__).parent / "demo_stdout"


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )}
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    frozen = FROZEN_STDOUT / f"{demo.stem}.txt"
    if frozen.exists():
        assert result.stdout == frozen.read_text(encoding="utf-8")
