"""The demos print the same bytes: sha256 of each demo's stdout is pinned.

Each demo runs in its own interpreter with PYTHONPATH=src, so it imports the
library from this checkout exactly as a user running it from the repository
root would.  Their output is deterministic.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "circle_invariants.py": "7d4f18dfe52e6ae26f559fd851583a8c1aad471fc7789bdab3c195c5236bfe98",
    "homology_recovery.py": "5f6a3d5edc349274b8db4aa31f7a14763cfe0f97c4e51b090166bedb732d91d5",
    "line_orbits.py": "a8ca49351aa93cbd34485c4e9a8e69f3624688968208089203c105a6ddcfb09e",
    "orbit_census.py": "21651583ef71b9e92303592f42d3b1d453201c4d58f8156bc6847c86888136df",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
