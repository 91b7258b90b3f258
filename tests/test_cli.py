"""End-to-end tests for the command line driver."""

import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import torpers.complexes
import torpers.exactla
import torpers.grading
import torpers.hypertor
import torpers.modules
import torpers.tor
from torpers import InternalCheckError
from torpers import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_xi_circle_json(capsys, fixture_path):
    data = run_json(
        capsys,
        "xi",
        "--input", str(fixture_path / "circle_fig.mfc"),
        "--q", "0",
        "--field", "5",
    )
    assert data["field"] == 5
    table = dict((j, pairs) for j, pairs in data["xi"])
    assert table[0] == [[[0, 0], 3]]
    assert table[1] == [[[0, 1], 1], [[1, 0], 1], [[2, 0], 1]]
    assert table[2] == [[[2, 1], 1]]
    assert data["rendered"]["xi_2"] == "{(2,1):1}"


def test_xi_circle_h1_is_free(capsys, fixture_path):
    data = run_json(
        capsys,
        "xi",
        "--input", str(fixture_path / "circle_fig.mfc"),
        "--q", "1",
        "--field", "5",
    )
    table = dict((j, pairs) for j, pairs in data["xi"])
    assert table[0] == [[[2, 1], 1]]
    assert table[1] == [] and table[2] == []


def test_xi_presentation_input(capsys, tmp_path):
    pres = tmp_path / "pres.json"
    pres.write_text(
        json.dumps(
            {
                "n": 2,
                "gens": [[0, 0], [0, 0]],
                "relations": [[[1, 1], {"0": 1, "1": -1}]],
            }
        )
    )
    data = run_json(capsys, "xi", "--input", str(pres), "--field", "3")
    table = dict((j, pairs) for j, pairs in data["xi"])
    assert table[0] == [[[0, 0], 2]]
    assert table[1] == [[[1, 1], 1]]
    assert table[2] == []


def test_xi_widen_changes_nothing(capsys, fixture_path):
    base = run_json(
        capsys, "xi", "--input", str(fixture_path / "circle_fig.mfc"), "--field", "2"
    )
    wide = run_json(
        capsys,
        "xi",
        "--input", str(fixture_path / "circle_fig.mfc"),
        "--field", "2",
        "--widen", "1",
    )
    assert base["xi"] == wide["xi"]


def test_resolve_text(capsys, fixture_path):
    rc, out, _ = run(
        capsys,
        "resolve",
        "--input", str(fixture_path / "circle_fig.mfc"),
        "--field", "2",
        "--format", "text",
    )
    assert rc == 0
    assert "length 2" in out
    assert "F_2  {(2,1):1}" in out


def test_hypertor_circle_table(capsys, fixture_path):
    data = run_json(
        capsys,
        "hypertor",
        "--input", str(fixture_path / "circle_fig.mfc"),
        "--field", "3",
    )
    assert data["hypertor"] == [
        [0, [[[0, 0], 3]]],
        [1, [[[0, 1], 1], [[1, 0], 1], [[2, 0], 1]]],
        [2, []],
        [3, []],
    ]


def test_e1_sphere_degenerates(capsys, fixture_path):
    data = run_json(
        capsys, "e1", "--input", str(fixture_path / "sphere.mfc"), "--field", "2"
    )
    assert data["verdict"] is True
    rc, out, _ = run(
        capsys,
        "e1",
        "--input", str(fixture_path / "sphere.mfc"),
        "--field", "2",
        "--format", "text",
    )
    assert rc == 0 and "degenerate yes" in out


@pytest.mark.parametrize("p", [3, 5])
def test_d2_circle_entry_is_minus_one(capsys, fixture_path, p):
    data = run_json(
        capsys,
        "d2",
        "--input", str(fixture_path / "circle_fig.mfc"),
        "--q", "0",
        "--field", str(p),
    )
    assert data["blocks"] == [{"degree": [2, 1], "matrix": [[p - 1]]}]
    assert data["source"] == [[[2, 1], 1]]
    assert data["target"] == [[[2, 1], 1]]
    assert "kernel" in data["interpretation"]
    assert "image" in data["interpretation"]


def test_d2_ranks_only_for_the_text_format(capsys, fixture_path, monkeypatch):
    argv = ["d2", "--input", str(fixture_path / "circle_fig.mfc"), "--q", "0"]
    rc, want, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0

    def refuse(self):
        raise AssertionError("d2 rank computed for a format that does not print it")

    with monkeypatch.context() as m:
        m.setattr(torpers.hypertor.D2Result, "rank", refuse)
        assert run(capsys, *argv, "--format", "json") == (0, want, "")
    rc, out, _ = run(capsys, *argv, "--format", "text")
    assert rc == 0 and "total rank 1" in out


def test_recover_text_reports_match(capsys, fixture_path):
    rc, out, _ = run(
        capsys,
        "recover",
        "--input", str(fixture_path / "circle_oneatatime.mfc"),
        "--field", "3",
        "--format", "text",
    )
    assert rc == 0
    assert "betti (1, 1, 0)" in out
    assert "MATCH" in out and "MISMATCH" not in out


def test_recover_json(capsys, fixture_path):
    data = run_json(
        capsys,
        "recover",
        "--input", str(fixture_path / "sphere.mfc"),
        "--field", "2",
    )
    assert data["match"] is True
    assert data["betti"][:3] == [1, 0, 1]
    assert not any(data["betti"][3:])


def test_orbits_line_example(capsys):
    data = run_json(
        capsys,
        "orbits",
        "--xi0", "[[[0],2],[[2],1]]",
        "--xi1", "[[[4],1]]",
        "--field", "3",
    )
    assert data["orbit_count"] == 2
    assert data["family_count"] == 13
    assert sorted(o["size"] for o in data["orbits"]) == [4, 9]
    assert data["phi_separates"] is True


def test_orbits_csv_one_row_per_orbit(capsys):
    rc, out, _ = run(
        capsys,
        "orbits",
        "--xi0", "[[[0],2],[[2],1]]",
        "--xi1", "[[[4],1]]",
        "--field", "2",
        "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("orbit,size")
    assert len(lines) == 3  # header + the two orbits


def test_validate_every_fixture(capsys, fixture_path):
    for name in ("circle_fig.mfc", "circle_oneatatime.mfc", "sphere.mfc"):
        data = run_json(
            capsys, "validate", "--input", str(fixture_path / name), "--field", "3"
        )
        assert data["ok"] is True
    assert data["one_at_a_time"] is False  # the sphere adds two cells in one step


def test_missing_file_exits_one(capsys):
    rc, out, err = run(capsys, "xi", "--input", "no_such_file.mfc")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("command", ["e1", "d2", "recover", "validate"])
def test_csv_is_refused_before_the_input_is_read(capsys, command):
    rc, out, err = run(
        capsys, command, "--input", "no_such_file.mfc", "--format", "csv"
    )
    assert rc == 1 and out == ""
    assert json.loads(err) == {
        "error": "validation",
        "message": "csv output is not available for %s" % command,
    }


def test_xi_rejects_boundary_not_squaring_to_zero(capsys, tmp_path):
    bad = tmp_path / "bad.mfc"
    bad.write_text(
        "n 2\nsimplex a @ (0,0)\nsimplex b @ (0,0)\n"
        "simplex ab a b @ (0,0)\ncell t 2 [ab:1] @ (1,1)\n"
    )
    rc, out, err = run(capsys, "xi", "--input", str(bad), "--q", "1")
    assert rc == 1 and out == ""
    assert "boundary of boundary" in json.loads(err)["message"]


def test_composite_field_exits_one(capsys, fixture_path):
    rc, _, err = run(
        capsys,
        "validate",
        "--input", str(fixture_path / "sphere.mfc"),
        "--field", "4",
    )
    assert rc == 1
    assert "prime" in json.loads(err)["message"]


def test_internal_check_exits_two(capsys, fixture_path, monkeypatch):
    def boom(M, widen=0):
        raise InternalCheckError("forced")

    monkeypatch.setattr(torpers.tor, "xi", boom)
    rc, _, err = run(
        capsys,
        "xi",
        "--input", str(fixture_path / "circle_fig.mfc"),
        "--field", "2",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "internal-check"


def test_any_other_exception_exits_two(capsys, fixture_path, monkeypatch):
    # an exception no check names is a bug too: exit 2, one JSON object with
    # the type and the text, nothing on stdout and no traceback
    def boom(M, widen=0):
        raise RuntimeError("forced")

    monkeypatch.setattr(torpers.tor, "xi", boom)
    rc, out, err = run(capsys, "xi", "--input", str(fixture_path / "circle_fig.mfc"))
    assert rc == 2 and out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "internal", "message": "RuntimeError: forced"}


def test_a_kernel_missing_a_row_exits_two(capsys, fixture_path, monkeypatch):
    # a class basis one row short gives one class fewer than the boundary
    # ranks: homology_module names H_q and the degree, and the run exits 2.
    # H_0 reads its classes off the pivots of the boundaries (every chain is
    # a cycle), so its row goes missing from the unit complement; H_1's
    # from the kernel basis of the boundary below it
    kernel_basis = torpers.exactla.kernel_basis
    unit_complement = torpers.exactla.stacked_unit_complement

    def one_short(basis):
        units, counts = unit_complement(basis)
        return units[:, :-1], [k - 1 for k in counts]

    for q, name, short, want in [
        ("0", "stacked_unit_complement", one_short,
         "H_0 at (0, 0): the boundary ranks give dimension 3, the classes 2"),
        ("1", "kernel_basis", lambda a, p: kernel_basis(a, p)[:-1],
         "H_1 at (2, 1): the boundary ranks give dimension 1, the classes 0"),
    ]:
        monkeypatch.setattr(torpers.exactla, name, short)
        rc, out, err = run(
            capsys,
            "xi",
            "--input", str(fixture_path / "circle_fig.mfc"),
            "--q", q,
            "--field", "5",
        )
        monkeypatch.undo()
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "internal-check", "message": want}


def test_a_chain_module_not_closed_under_a_step_exits_two(
    capsys, fixture_path, monkeypatch
):
    # vertex b dropped from C_0 at index point (1, 1), where it is present at
    # (0, 1) and (1, 0): e1 builds C_0, whose first step into (1, 1), from
    # (0, 1) along axis 0, is not closed, and the run exits 2 naming it
    present = torpers.modules.ChainData.present

    def dropping(data, i):
        found = present(data, i)
        if i == 0:
            assert found[(1, 1)] == [0, 1, 2] and 1 in found[(0, 1)]
            found = {**found, (1, 1): [0, 2]}
        return found

    monkeypatch.setattr(torpers.modules.ChainData, "present", dropping)
    rc, out, err = run(
        capsys, "e1", "--input", str(fixture_path / "circle_fig.mfc"), "--field", "5"
    )
    assert rc == 2 and out == ""
    assert json.loads(err) == {
        "error": "internal-check",
        "message": "basis family is not closed under the step at (0, 1) axis 0",
    }


def test_boundaries_outside_the_cycles_exit_two(capsys, fixture_path, monkeypatch):
    # a 2-cell boundary column that is no cycle: H_1 names the degree
    boundary_at = torpers.modules.ChainData.boundary_at

    def corrupted(data, i, v):
        m = boundary_at(data, i, v)
        if i == 2 and m.size:
            m = m.copy()
            m[:, 0] = (m[:, 0] + 1) % data.p
        return m

    monkeypatch.setattr(torpers.modules.ChainData, "boundary_at", corrupted)
    rc, out, err = run(
        capsys,
        "xi",
        "--input", str(fixture_path / "sphere.mfc"),
        "--q", "1",
        "--field", "2",
    )
    assert rc == 2 and out == ""
    assert json.loads(err)["message"] == (
        "H_1 at (2, 1): the boundaries are not contained in the cycles"
    )


@pytest.mark.parametrize("fault", ["missing", "misshapen"])
def test_a_bad_step_exits_two_naming_its_degree(
    capsys, fixture_path, monkeypatch, fault
):
    # a chain module built without its last step, or with it one row too
    # many: the constructor's check names the degree, not the index point.
    # e1 builds C_0 first; hypertor builds no module at all
    path = fixture_path.parent / "tests/golden/stretched/circle_fig.mfc"
    data = torpers.modules.ChainData(torpers.complexes.load_mfc(path), 5)
    bound, coords = data.bound, data.coords
    v, j, _ = list(torpers.grading.unit_steps(bound))[-1]
    init = torpers.modules.PersistenceModule.__init__

    def broken(self, n, bound, dims, steps, *args, **kwargs):
        steps = dict(steps)
        if fault == "missing":
            steps.pop((v, j), None)
        elif (v, j) in steps:  # one row too many
            rows, cols = steps[(v, j)].shape
            steps[(v, j)] = np.zeros((rows + 1, cols), dtype=np.int64)
        init(self, n, bound, dims, steps, *args, **kwargs)

    monkeypatch.setattr(torpers.modules.PersistenceModule, "__init__", broken)
    rc, out, err = run(capsys, "e1", "--input", str(path), "--field", "5")
    assert rc == 2 and out == "" and "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "internal-check"
    degree = torpers.grading.to_degree(coords, v)
    assert degree != v
    fault = "is missing" if fault == "missing" else "has shape"
    assert error["message"].startswith("step at %s axis %d %s" % (degree, j, fault))


@pytest.mark.parametrize(
    "stem, p", [("circle_fig", 5), ("sphere", 2), ("circle_oneatatime", 3)]
)
@pytest.mark.parametrize("command", ["e1", "recover"])
def test_a_rank_one_too_low_exits_two(
    capsys, fixture_path, monkeypatch, stem, p, command
):
    # complex_ranks reporting its largest rank one too low is a bug, not a
    # page that fails to degenerate: on the one-critical circle_fig hypertor
    # disagrees with the cells entering at a degree, and on the others it
    # rises above the E1 sums.  hypertor_dims ranks each line by one prefix
    # call: its largest D_ell loses its last pivot from the step it entered
    # at.  The calls without steps, the Koszul ranks of the entry patterns
    # that E1 is made of, stay right
    complex_ranks = torpers.exactla.complex_ranks

    def one_low(cols, p, steps=None, length=1):
        out = complex_ranks(cols, p, steps, length)
        last = [r[-1] for r in out] if steps else []
        if max(last, default=0):
            ranks = out[last.index(max(last))]
            t = ranks.index(ranks[-1])
            ranks[t:] = [r - 1 for r in ranks[t:]]
        return out

    monkeypatch.setattr(torpers.exactla, "complex_ranks", one_low)
    path = str(fixture_path / (stem + ".mfc"))
    rc, out, err = run(capsys, command, "--input", path, "--field", str(p))
    assert rc == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "internal-check"
    tail = "above the E1 sum"
    if stem == "circle_fig":
        tail = "the cells entering there give"
    assert re.fullmatch(
        r"hypertor_\d+ at \(\d+, \d+\) is \d+, %s \d+" % tail, error["message"]
    )


def test_output_bytes_are_stable(capsys, fixture_path):
    args = (
        "hypertor",
        "--input", str(fixture_path / "sphere.mfc"),
        "--field", "2",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_module_entry_point_matches_main(capsys, monkeypatch):
    root = pathlib.Path(__file__).resolve().parent.parent
    argv = ["validate", "--input", "fixtures/sphere.mfc"]
    proc = subprocess.run(
        [sys.executable, "-m", "torpers"] + argv,
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(root)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert proc.stdout == out.encode()


# -- the int64 contract: field bound and coefficients reduced mod p ------------


@pytest.mark.parametrize("field", ["4294967311", "1000000000000000003"])
def test_field_above_int64_bound_exits_one(capsys, fixture_path, field):
    circle = str(fixture_path / "circle_fig.mfc")
    calls = [
        [cmd, "--input", circle]
        for cmd in ("xi", "resolve", "hypertor", "e1", "d2", "recover", "validate")
    ]
    calls.append(["orbits", "--xi0", "[[[0,0],2]]", "--xi1", "[[[1,1],1]]"])
    for argv in calls:
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv, "--field", field)
        assert time.perf_counter() - start < 2, argv
        assert rc == 1 and out == "", argv
        data = json.loads(err)
        assert data["error"] == "validation", argv
        assert "3037000493" in data["message"], argv


def test_largest_accepted_field(capsys, fixture_path):
    circle = str(fixture_path / "circle_fig.mfc")
    assert run(capsys, "validate", "--input", circle, "--field", "3037000493")[0] == 0
    rc, _, err = run(capsys, "validate", "--input", circle, "--field", "3037000507")
    assert rc == 1 and "3037000493" in json.loads(err)["message"]


def test_d2_exact_at_the_largest_field(capsys, tmp_path):
    # int64 sums of products overflow at this p; the exact product keeps the
    # zig-zag's boundary solve consistent
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    path = tmp_path / "rips.mfc"
    path.write_text(inputs.ring_rips(3)[0])
    data = run_json(capsys, "d2", "--input", str(path), "--q", "0", "--field", "3037000493")
    assert data["q"] == 0


def _reduce_coefficients(text, p):
    return re.sub(r":(-?\d+)", lambda m: ":%d" % (int(m.group(1)) % p), text)


def _same_output_as_reduced(capsys, tmp_path, text, p, calls):
    """Run each call on text and on text with its coefficients reduced mod p."""
    raw = tmp_path / "raw.mfc"
    raw.write_text(text)
    reduced = tmp_path / "reduced.mfc"
    reduced.write_text(_reduce_coefficients(text, p))
    outputs = []
    for argv in calls:
        got = []
        for path in (raw, reduced):
            rc, out, err = run(capsys, *argv, "--input", str(path), "--field", str(p))
            assert "Traceback" not in err
            data = json.loads(out or err)
            data.pop("input", None)
            got.append((rc, data))
        assert got[0] == got[1], argv
        outputs.append(got[0])
    return outputs


def test_coefficient_sum_past_int64_is_reduced_first(capsys, tmp_path):
    # 2·(2^63 - 1) + 1 ≡ 0 mod 3, so l is a cycle
    huge = 2**63 - 1
    text = "n 1\nsimplex a @ (0)\ncell l 1 [a:%d,a:%d,a:1] @ (1)\n" % (huge, huge)
    calls = [
        ["xi", "--q", "0"], ["xi", "--q", "1"], ["resolve", "--q", "1"],
        ["hypertor"], ["e1"], ["recover"], ["validate"],
    ]
    outputs = _same_output_as_reduced(capsys, tmp_path, text, 3, calls)
    rc, xi1 = outputs[1]
    assert rc == 0 and xi1["rendered"]["xi_0"] == "{(1):1}"


@pytest.mark.parametrize("p", [3, 5])
def test_coefficient_past_int64_is_reduced_first(capsys, tmp_path, p):
    big = 10**20
    text = (
        "n 2\nsimplex a @ (0,0)\nsimplex b @ (1,0)\n"
        "cell l 1 [a:-%d,b:%d] @ (1,1)\n"
        "cell m 1 [a:-1,b:1] @ (2,1) (1,2)\n"
        "cell t 2 [l:%d,m:-%d] @ (2,2)\n" % (big, big, big, big)
    )
    calls = [
        ["xi", "--q", "0"], ["xi", "--q", "1"], ["resolve", "--q", "1"],
        ["hypertor"], ["e1"], ["d2", "--q", "0"], ["recover"], ["validate"],
    ]
    outputs = _same_output_as_reduced(capsys, tmp_path, text, p, calls)
    assert all(rc == 0 for rc, _ in outputs[:-2])


# -- the exit-code contract: malformed input exits 1 with validation JSON ------


def assert_validation_exit(rc, out, err):
    assert "Traceback" not in err
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("widen", ["-1", "-3"])
def test_negative_widen_exits_one(capsys, fixture_path, widen):
    circle = str(fixture_path / "circle_fig.mfc")
    rc, out, err = run(capsys, "xi", "--input", circle, "--widen", widen)
    assert_validation_exit(rc, out, err)
    assert "widen" in json.loads(err)["message"]


def test_out_of_memory_exits_one(capsys, monkeypatch, tmp_path):
    # a one-vertex complex with n = 20 asks numpy for a 3^20-entry dims
    # array; an address-space limit makes that allocation raise MemoryError.
    # resolve builds no Koszul layout, so no layout check refuses it first
    def refuse(self, *args, **kwargs):
        raise MemoryError("Unable to allocate 26.0 GiB for an array")

    monkeypatch.setattr(torpers.modules.PersistenceModule, "__init__", refuse)
    path = tmp_path / "big.mfc"
    path.write_text("n 20\nsimplex v @ (%s)\n" % ",".join(["0"] * 20))
    rc, out, err = run(capsys, "resolve", "--input", str(path), "--q", "0")
    assert_validation_exit(rc, out, err)
    assert "Unable to allocate" in json.loads(err)["message"]


ORIGIN_40 = "n 40\nsimplex v @ (%s)\n" % ",".join(["0"] * 40)
TOO_LARGE_TO_ADDRESS = {
    "xi-q0": ["xi", "--q", "0"],
    "xi-q1": ["xi", "--q", "1"],
    "resolve-q0": ["resolve", "--q", "0"],
    "hypertor": ["hypertor"],
    "e1": ["e1"],
    "d2-q0": ["d2", "--q", "0"],
    "recover": ["recover"],
}


@pytest.mark.parametrize(
    "argv", TOO_LARGE_TO_ADDRESS.values(), ids=TOO_LARGE_TO_ADDRESS.keys()
)
def test_a_module_too_large_to_address_exits_one(capsys, tmp_path, argv):
    # one vertex at the origin with n = 40: a dims array of 3^40 entries is
    # more than numpy can address, so it is refused before it is allocated
    path = tmp_path / "origin40.mfc"
    path.write_text(ORIGIN_40)
    rc, out, err = run(capsys, *argv, "--input", str(path))
    assert_validation_exit(rc, out, err)
    assert json.loads(err)["message"] == (
        "a module over n = 40 parameters needs %d dims entries, more than one "
        "array can address" % 3**40
    )


def test_a_presentation_or_census_too_large_to_address_exits_one(capsys, tmp_path):
    path = tmp_path / "free40.json"
    path.write_text(json.dumps({"n": 40, "gens": [[0] * 40], "relations": []}))
    for argv in (
        ["xi", "--input", str(path)],
        ["orbits", "--xi0", json.dumps([[[0] * 40, 1]])],
    ):
        rc, out, err = run(capsys, *argv)
        assert_validation_exit(rc, out, err)
        assert "n = 40 parameters" in json.loads(err)["message"]


def test_validate_reads_a_module_too_large_to_address(capsys, tmp_path):
    # validate builds no module, so the same file stays valid
    path = tmp_path / "origin40.mfc"
    path.write_text(ORIGIN_40)
    assert run_json(capsys, "validate", "--input", str(path)) == {
        "bound": [0] * 40,
        "cells": 1,
        "field": 2,
        "input": str(path),
        "ok": True,
        "one_at_a_time": True,
        "params": 40,
    }


TWO_VERTICES_12 = "n 12\nsimplex a @ (%s)\nsimplex b @ (%s)\n" % (
    ",".join(["0"] * 12),
    ",".join(["1"] * 12),
)
KOSZUL_COMMANDS = {
    name: argv
    for name, argv in TOO_LARGE_TO_ADDRESS.items()
    if name != "resolve-q0"
}


def _capped(*argv, timeout=120):
    """(exit code, stdout, stderr) of `python -m torpers argv` in a child
    process under a 3 GB address-space cap and a timeout (seconds)."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

    proc = subprocess.run(
        [sys.executable, "-m", "torpers"] + list(argv),
        cwd=pathlib.Path(__file__).resolve().parent.parent,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=cap,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", KOSZUL_COMMANDS.values(), ids=KOSZUL_COMMANDS.keys())
def test_koszul_layouts_past_the_budget_exit_one(tmp_path, argv):
    # vertices at 0 and (1,..,1) with n = 12: 3^12 scan points of 2^12 Koszul
    # blocks each, refused before any layout is allocated
    path = tmp_path / "two12.mfc"
    path.write_text(TWO_VERTICES_12)
    rc, out, err = _capped(*argv, "--input", str(path))
    assert_validation_exit(rc, out, err)
    assert json.loads(err)["message"] == (
        "the Koszul layouts of a module over n = 12 parameters need %d block "
        "entries, over the limit %d" % (3**12 * 2**12, 2**27)
    )


@pytest.mark.parametrize("argv", KOSZUL_COMMANDS.values(), ids=KOSZUL_COMMANDS.keys())
def test_koszul_layouts_are_refused_before_any_module_is_built(
    capsys, monkeypatch, tmp_path, argv
):
    # the limit is read from n and the bound as soon as the complex is read,
    # not after seconds of work on the 3^12-point grid
    def built(self, *args, **kwargs):
        raise AssertionError("a module was built before the refusal")

    monkeypatch.setattr(torpers.modules.PersistenceModule, "__init__", built)
    path = tmp_path / "two12.mfc"
    path.write_text(TWO_VERTICES_12)
    rc, out, err = run(capsys, *argv, "--input", str(path))
    assert_validation_exit(rc, out, err)
    assert "need %d block entries" % (3**12 * 2**12) in json.loads(err)["message"]


def test_the_widened_layouts_are_refused_with_their_count(tmp_path):
    # --widen 2 moves the bound (1,..,1) to (3,..,3): the count names the
    # widened scan box, 5^12 points, refused before the 3^12-point grid's
    # modules are built
    path = tmp_path / "two12.mfc"
    path.write_text(TWO_VERTICES_12)
    rc, out, err = _capped("xi", "--widen", "2", "--input", str(path), timeout=20)
    assert_validation_exit(rc, out, err)
    assert "need %d block entries" % (5**12 * 2**12) in json.loads(err)["message"]


@pytest.mark.parametrize("n", [9, 12, 13])
def test_e1_of_one_vertex_at_high_n(tmp_path, n):
    # the vertex's entry pattern is one point, its own lcm lattice: e1 reads
    # its Tor there, not on the 2^n-point box around it (a scan of that box
    # took 20-30 s at n = 12 on a 2-core host, and doubles with each n)
    path = pathlib.Path("tests/golden/origin9.mfc")
    if n != 9:
        path = tmp_path / "origin.mfc"
        path.write_text("n %d\nsimplex v @ (%s)\n" % (n, ",".join(["0"] * n)))
    rc, out, err = _capped("e1", "--input", str(path), timeout=20)
    assert (rc, err) == (0, "")
    hyper = _capped("hypertor", "--input", str(path), timeout=20)
    assert hyper[0] == 0
    assert json.loads(out)["hypertor"] == json.loads(hyper[1])["hypertor"]
    if n == 9:
        golden = pathlib.Path(__file__).resolve().parent / "golden/origin9_e1.json"
        assert out == golden.read_text()


def test_resolve_and_validate_need_no_koszul_layout(tmp_path):
    path = tmp_path / "two12.mfc"
    path.write_text(TWO_VERTICES_12)
    corners = "[%s]" % ",".join(["0"] * 12), "[%s]" % ",".join(["1"] * 12)
    assert _capped("validate", "--input", str(path)) == (
        0,
        '{"bound":%s,"cells":2,"field":2,"input":"%s","ok":true,'
        '"one_at_a_time":true,"params":12}\n' % (corners[1], path),
        "",
    )
    assert _capped("resolve", "--q", "0", "--input", str(path)) == (
        0,
        '{"betti":[[0,[[%s,1],[%s,1]]]],"field":2,"input":"%s","length":0,'
        '"rendered":{"F_0":"{(%s):1,(%s):1}"}}\n'
        % (corners + (path,) + tuple(c[1:-1] for c in corners)),
        "",
    )


MALFORMED_PRESENTATIONS = {
    "n-not-a-number": '{"n": "a", "gens": [[0,0]], "relations": []}',
    "coefficient-key-not-an-index": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1], {"x": 1}]]}'
    ),
    "coefficient-not-an-integer": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1], {"0": "1e3"}]]}'
    ),
    "relation-without-coefficients": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1]]]}'
    ),
    "negative-generator-degree": '{"n": 2, "gens": [[0,-1]], "relations": []}',
    "coefficients-as-a-list": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1], [1]]]}'
    ),
    "n-overflows": '{"n": 1e400, "gens": [[0,0]], "relations": []}',
    "n-is-zero": '{"n": 0, "gens": [], "relations": []}',
    "n-is-negative": '{"n": -1, "gens": [], "relations": []}',
    # numbers that are not JSON integers are refused, never truncated
    "degrees-are-floats": (
        '{"n": 2, "gens": [[0.9, 0]], "relations": [[[1.5, 2.7], {"0": 1}]]}'
    ),
    "relation-degree-is-a-float": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1.5], {"0": 1}]]}'
    ),
    "n-is-a-float": '{"n": 2.9, "gens": [[0,0]], "relations": []}',
    "n-is-a-bool": '{"n": true, "gens": [[0]], "relations": []}',
    "coefficient-is-a-float": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1], {"0": 2.5}]]}'
    ),
    "coefficient-is-a-bool": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1], {"0": true}]]}'
    ),
    "degree-entry-is-a-bool": '{"n": 2, "gens": [[true,0]], "relations": []}',
    # a coefficient key is canonical decimal, so no two keys name one generator
    "coefficient-keys-name-one-generator": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1], {"0": 1, "00": 0}]]}'
    ),
    "coefficient-key-with-space-sign-and-underscore": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1], {" +0_0": 1}]]}'
    ),
    "coefficient-key-repeated": (
        '{"n": 2, "gens": [[0,0]], "relations": [[[1,1], {"0": 1, "0": 0}]]}'
    ),
}


@pytest.mark.parametrize(
    "text", MALFORMED_PRESENTATIONS.values(), ids=MALFORMED_PRESENTATIONS.keys()
)
@pytest.mark.parametrize("command", ["xi", "resolve"])
def test_malformed_presentation_exits_one(capsys, tmp_path, command, text):
    path = tmp_path / "pres.json"
    path.write_text(text)
    assert_validation_exit(*run(capsys, command, "--input", str(path), "--field", "3"))


MALFORMED_ORBITS = {
    "degree-and-multiplicity-are-floats": ["--xi0", "[[[0.9,0],1.7]]"],
    "multiplicity-is-a-float": ["--xi0", "[[[0,0],1.5]]"],
    "xi1-degree-entry-is-a-bool": ["--xi0", "[[[0,0],2]]", "--xi1", "[[[true,1],1]]"],
    "xi1-multiplicity-is-a-string": ["--xi0", "[[[0,0],2]]", "--xi1", '[[[1,1],"1"]]'],
}


@pytest.mark.parametrize("argv", MALFORMED_ORBITS.values(), ids=MALFORMED_ORBITS.keys())
def test_malformed_orbits_multiset_exits_one(capsys, argv):
    assert_validation_exit(*run(capsys, "orbits", *argv, "--field", "3"))


MALFORMED_MFC = {
    "n-is-a-superscript": "n ²\nsimplex a @ (0)\n",
    "not-utf8": b"n 1\nsimplex \xff @ (0)\n",
}


@pytest.mark.parametrize("text", MALFORMED_MFC.values(), ids=MALFORMED_MFC.keys())
@pytest.mark.parametrize("command", ["validate", "xi"])
def test_malformed_mfc_exits_one(capsys, tmp_path, command, text):
    path = tmp_path / "bad.mfc"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    assert_validation_exit(*run(capsys, command, "--input", str(path)))


MALFORMED_ARGV = {
    "field-not-an-int": ["xi", "--input", "f", "--field", "abc"],
    "unknown-command": ["nosuch"],
    "no-command": [],
    "input-missing": ["xi"],
    "unknown-format": ["hypertor", "--input", "f", "--format", "xml"],
    "unrecognized-argument": ["validate", "--input", "f", "--bogus"],
    "xi0-without-a-value": ["orbits", "--xi0"],
}


@pytest.mark.parametrize("argv", MALFORMED_ARGV.values(), ids=MALFORMED_ARGV.keys())
def test_malformed_command_line_exits_one(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert_validation_exit(rc, out, err)
    assert json.loads(err)["message"].startswith("torpers")


def test_malformed_command_line_names_the_argument(capsys):
    rc, _, err = run(capsys, "xi", "--input", "f", "--field", "abc")
    assert rc == 1
    assert json.loads(err) == {
        "error": "validation",
        "message": "torpers xi: argument --field: invalid int value: 'abc'",
    }


@pytest.mark.parametrize("argv", [["-h"], ["xi", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: torpers" in capsys.readouterr().out


def test_the_parser_is_built_once(capsys, fixture_path, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    argv = ("validate", "--input", str(fixture_path / "sphere.mfc"))
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert len(builds) <= 1


def test_superscript_vertex_is_a_name(capsys, tmp_path):
    # '²' passes str.isdigit() but is no integer: it sorts as a name
    path = tmp_path / "sup.mfc"
    path.write_text(
        "n 1\nsimplex ² @ (0)\nsimplex 1 @ (0)\nsimplex e ² 1 @ (1)\n",
        encoding="utf-8",
    )
    assert run_json(capsys, "validate", "--input", str(path))["cells"] == 3
    data = run_json(capsys, "xi", "--input", str(path), "--q", "0")
    assert data["rendered"]["xi_0"] == "{(0):2}"
