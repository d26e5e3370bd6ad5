"""Smoke test: every script in scripts/ runs to exit 0 on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SCRIPTS = {
    "bound_margins.py": ["--cases", "3"],
}


def test_every_script_is_covered():
    assert {p.name for p in (ROOT / "scripts").glob("*.py")} == set(SCRIPTS)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *SCRIPTS[name]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
