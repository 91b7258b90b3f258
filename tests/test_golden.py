"""Golden bytes of the command line: exit code, stdout and stderr per call.

Every bundled fixture runs through every subcommand in every output format,
over the field the README uses for it; the README presentation runs through
xi and resolve, the README orbits example through orbits, and the
two-grading censuses (and one shape with no family) through orbits in JSON
and text.  Every subcommand that computes also runs on every fixture in
JSON over the prime 1000000007, where a sum of about ten products already
passes 2^63, and xi runs widened by one and two steps on every fixture
(JSON) and by one step on the README presentation.  The same fixtures and the README presentation
also run with every degree moved through one non-uniform, strictly
increasing map per axis (STRETCH_MAPS; the remapped inputs are checked in
under golden/stretched/), so the bytes of inputs with gaps between their
entry coordinates are pinned too.  Each call's exit code and the sha256 of its
stdout and stderr are pinned in golden/digests.json.  Inputs are named by
paths relative to the repository root (the reports echo the path), so the
calls run from there.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

import randfix
from torpers import cli
from torpers import complexes as cxm

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).resolve().parent / "golden" / "digests.json"

FIXTURE_FIELDS = {"circle_fig": 5, "circle_oneatatime": 3, "sphere": 2}
FORMATS = ("json", "text", "csv")
FIXTURE_COMMANDS = (
    ("validate",),
    ("xi", "--q", "0"),
    ("xi", "--q", "1"),
    ("resolve", "--q", "0"),
    ("hypertor",),
    ("e1",),
    ("d2", "--q", "0"),
    ("recover",),
)
PRESENTATION = "tests/golden/readme_presentation.json"
ORBITS = ("orbits", "--xi0", "[[[0],2],[[2],1]]", "--xi1", "[[[4],1]]", "--field", "3")
CENSUS_CALLS = (
    # the benchmark's two censuses: GF(5) four lines and GF(3) mixed degrees
    ("orbits", "--xi0", "[[[0,0],2]]")
    + ("--xi1", "[[[0,3],1],[[1,2],1],[[2,1],1],[[3,0],1]]", "--field", "5"),
    ("orbits", "--xi0", "[[[0,1],1],[[1,0],2]]")
    + ("--xi1", "[[[1,1],1],[[1,2],1],[[2,0],1]]", "--field", "3"),
    # two relations on one generator: no family at all
    ("orbits", "--xi0", "[[[0,0],1]]", "--xi1", "[[[1,1],2]]", "--field", "3"),
)
LARGE_FIELD = "1000000007"
LARGE_FIELD_COMMANDS = tuple(c for c in FIXTURE_COMMANDS if c != ("validate",))
WIDEN_COMMANDS = tuple(
    ("xi", "--q", q, "--widen", w) for q in ("0", "1") for w in ("1", "2")
)
STRETCHED = "tests/golden/stretched/"
STRETCH_MAPS = ((0, 3, 4, 9, 11), (1, 2, 7, 8))
STRETCH_COMMANDS = FIXTURE_COMMANDS + (
    ("xi", "--q", "0", "--widen", "1"),
    ("xi", "--q", "1", "--widen", "1"),
)
STRETCH_FORMATS = ("json", "text")
# chain dimensions outside 0..top (circle_fig has top 1): the boundary is read
# at i <= 0 and at i > top, and every table comes out empty
CHAIN_END_COMMANDS = (
    ("xi", "--q", "-1"),
    ("xi", "--q", "2"),
    ("resolve", "--q", "-1"),
    ("d2", "--q", "1"),
)


def golden_calls():
    """Every pinned argv, in a fixed order."""
    calls = []
    for name, field in FIXTURE_FIELDS.items():
        for command in FIXTURE_COMMANDS:
            for fmt in FORMATS:
                calls.append(
                    list(command)
                    + ["--input", "fixtures/%s.mfc" % name]
                    + ["--field", str(field), "--format", fmt]
                )
    for command in ("xi", "resolve"):
        for fmt in FORMATS:
            calls.append([command, "--input", PRESENTATION, "--field", "3", "--format", fmt])
    for fmt in FORMATS:
        calls.append(list(ORBITS) + ["--format", fmt])
    for name in FIXTURE_FIELDS:
        for command in LARGE_FIELD_COMMANDS:
            calls.append(
                list(command)
                + ["--input", "fixtures/%s.mfc" % name]
                + ["--field", LARGE_FIELD, "--format", "json"]
            )
    for name, field in FIXTURE_FIELDS.items():
        for command in WIDEN_COMMANDS:
            calls.append(
                list(command)
                + ["--input", "fixtures/%s.mfc" % name]
                + ["--field", str(field), "--format", "json"]
            )
    calls.append(
        ["xi", "--widen", "1", "--input", PRESENTATION]
        + ["--field", "3", "--format", "json"]
    )
    for name, field in FIXTURE_FIELDS.items():
        for command in STRETCH_COMMANDS:
            for fmt in STRETCH_FORMATS:
                calls.append(
                    list(command)
                    + ["--input", STRETCHED + name + ".mfc"]
                    + ["--field", str(field), "--format", fmt]
                )
    presentation = STRETCHED + "readme_presentation.json"
    for command in (("xi",), ("resolve",), ("xi", "--widen", "1")):
        for fmt in STRETCH_FORMATS:
            calls.append(
                list(command)
                + ["--input", presentation, "--field", "3", "--format", fmt]
            )
    for command in CENSUS_CALLS:
        for fmt in STRETCH_FORMATS:
            calls.append(list(command) + ["--format", fmt])
    for command in CHAIN_END_COMMANDS:
        for fmt in STRETCH_FORMATS:
            calls.append(
                list(command)
                + ["--input", "fixtures/circle_fig.mfc"]
                + ["--field", "3", "--format", fmt]
            )
    return calls


def stretched_inputs():
    """Every stretched input by path relative to the root: the remapped
    complex of each fixture, and the text of the remapped presentation."""
    out = {}
    for name in FIXTURE_FIELDS:
        cx = cxm.load_mfc(str(ROOT / "fixtures" / (name + ".mfc")))
        out[STRETCHED + name + ".mfc"] = randfix.remap_complex(cx, STRETCH_MAPS)
    pres = json.loads((ROOT / PRESENTATION).read_text())
    pres["gens"] = [list(randfix.remap_degree(STRETCH_MAPS, g)) for g in pres["gens"]]
    pres["relations"] = [
        [list(randfix.remap_degree(STRETCH_MAPS, d)), coeffs]
        for d, coeffs in pres["relations"]
    ]
    out[STRETCHED + "readme_presentation.json"] = json.dumps(pres) + "\n"
    return out


def record(argv):
    """Exit code and stdout/stderr digests of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return {
        "argv": list(argv),
        "exit": rc,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def _pinned():
    return json.loads(DIGESTS.read_text())


def test_golden_call_list_is_pinned():
    assert [entry["argv"] for entry in _pinned()] == golden_calls()


@pytest.mark.parametrize("entry", _pinned(), ids=lambda e: " ".join(e["argv"]))
def test_golden_bytes(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert record(entry["argv"]) == entry


def _cells(cx):
    return cx.n, sorted((c.id, c.dim, c.boundary, c.degrees) for c in cx.cells.values())


def test_stretched_inputs_are_the_remapped_originals():
    for path, want in stretched_inputs().items():
        if path.endswith(".mfc"):
            assert _cells(cxm.load_mfc(str(ROOT / path))) == _cells(want), path
        else:
            assert (ROOT / path).read_text() == want, path


def test_csv_refusals_keep_exit_one():
    refused = [
        e
        for e in _pinned()
        if e["argv"][0] in ("validate", "e1", "d2", "recover")
        and e["argv"][-1] == "csv"
    ]
    assert len(refused) == 12
    assert all(e["exit"] == 1 for e in refused)
