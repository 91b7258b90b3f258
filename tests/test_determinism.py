"""The same input gives the same stdout bytes in every process.

Nothing in torpers draws random numbers: the census spot-checks its orbits by
a fixed rule, and d2 checks every lift ambiguity in one chase.  Two
processes with different string hash seeds run the benchmark's two census
shapes, `recover` and `d2` on a fixture, and `hypertor`, `e1` and `xi` in
degrees 0 and 1 on two more, and must print the same bytes; none of those
calls may even load numpy.random.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Runs each CLI call in this one process, then prints one JSON line: the
# calls' exit codes and stdout, and whether numpy.random was loaded by then.
SCRIPT = """
import contextlib, io, json, sys
from torpers import cli
outs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outs.append((cli.main(argv), out.getvalue()))
print(json.dumps({"outs": outs, "numpy.random": "numpy.random" in sys.modules}))
"""

CENSUSES = [
    ["orbits", "--xi0", "[[[0,0],2]]", "--field", "5",
     "--xi1", "[[[0,3],1],[[1,2],1],[[2,1],1],[[3,0],1]]"],
    ["orbits", "--xi0", "[[[0,1],1],[[1,0],2]]", "--field", "3",
     "--xi1", "[[[1,1],1],[[1,2],1],[[2,0],1]]"],
]
FIXTURE = ["--input", "fixtures/circle_oneatatime.mfc", "--field", "3"]
CHAIN_CALLS = [["recover"] + FIXTURE, ["d2", "--q", "0"] + FIXTURE]
# hypertor keys its total complex by tuples of axes and cells, and xi ranks
# the boundaries one line at a time, each degree in the order of its steps
TOTAL_CALLS = [
    command + ["--input", "fixtures/%s.mfc" % stem, "--field", field]
    for stem, field in (("sphere", "2"), ("circle_fig", "5"))
    for command in (["hypertor"], ["e1"], ["xi", "--q", "0"], ["xi", "--q", "1"])
]


def _run(calls, hash_seed):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(calls)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=hash_seed),
        capture_output=True,
        check=True,
    )
    return proc.stdout, json.loads(proc.stdout)


def test_stdout_does_not_depend_on_the_hash_seed():
    calls = CENSUSES + CHAIN_CALLS + TOTAL_CALLS
    first, report = _run(calls, "0")
    second, _ = _run(calls, "12345")
    assert [rc for rc, _ in report["outs"]] == [0] * len(calls)
    assert first == second
    assert report["numpy.random"] is False
