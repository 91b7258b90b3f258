"""End-to-end tests for the command line driver."""

import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

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
