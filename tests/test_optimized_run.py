"""No check vanishes under python -O.

python -O strips assert statements, so a check written as one would not run
there.  The package has none, and an optimized run prints what a plain run
prints.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the benchmark's GF(3) census shape: mixed generator degrees
GF3_CENSUS = [
    "orbits",
    "--xi0", json.dumps([[[0, 1], 1], [[1, 0], 2]]),
    "--xi1", json.dumps([[[1, 1], 1], [[1, 2], 1], [[2, 0], 1]]),
    "--field", "3",
]


def test_no_assert_statement_in_the_package():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((ROOT / "src" / "torpers").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "argv",
    [["hypertor", "--input", "fixtures/sphere.mfc", "--field", "2"], GF3_CENSUS],
    ids=["hypertor-sphere", "orbits-gf3"],
)
def test_an_optimized_run_prints_the_same_bytes(argv):
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "torpers", *argv],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]
