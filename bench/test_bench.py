"""Tests of the benchmark itself: generators, output checks, tracer.

    python3 -m pytest bench -q
"""

import copy
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import clock  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


# -- generators ----------------------------------------------------------------


def test_ring_rips_is_deterministic_per_seed():
    assert inputs.ring_rips(3) == inputs.ring_rips(3)
    assert inputs.ring_rips(3)[0] != inputs.ring_rips(4)[0]


def test_ring_rips_cell_count_does_not_depend_on_seed():
    counts = {tuple(inputs.ring_rips(s)[1]["cells"]) for s in range(1, 11)}
    assert len(counts) == 1
    n, reach = inputs.RIPS_POINTS, inputs.RIPS_REACH
    assert reach / n < 1 / 3
    assert counts == {(n, n * reach, n * reach * (reach - 1) // 2)}


def test_ring_rips_edges_enter_above_the_first_axis():
    # xi_0(H_0) is the vertex degrees only if no edge enters at (x, 0)
    text, _ = inputs.ring_rips(5)
    for line in text.splitlines():
        if line.startswith("simplex e"):
            assert not line.endswith(",0)")


def test_stretch_scales_every_entry_degree():
    with open(os.path.join("fixtures", "circle_oneatatime.mfc")) as fh:
        text = fh.read()
    stretched = inputs.stretch_mfc(text, 4)
    assert stretched == inputs.stretch_mfc(text, 4)
    assert "simplex C @ (8,4) (16,0)" in stretched
    before, after = inputs.mfc_sizes(text), inputs.mfc_sizes(stretched)
    assert after["cells"] == before["cells"] == 6
    assert after["grid_bound"] == [4 * b for b in before["grid_bound"]]


def test_prepare_writes_the_same_files_for_the_same_seed(tmp_path):
    for w in workloads.WORKLOADS.values():
        a = w.prepare(2, str(tmp_path / "a"))
        b = w.prepare(2, str(tmp_path / "b"))
        assert sorted(a.files.values()) == sorted(b.files.values())
        for path, text in a.files.items():
            with open(path) as fh:
                assert fh.read() == text


# -- output checks -------------------------------------------------------------


def _failed(problems):
    return [k for k, p in enumerate(problems) if p]


def _rips_outputs(plan):
    """A pass of rips reports that meet every check."""
    outputs = []
    for c in plan.calls:
        if c.command == "validate":
            rep = {"ok": True, "cells": c.expect["cells"]}
        elif c.command == "xi":
            xi0 = c.expect.get("xi0", [((5, 4), 1)])
            rep = {"xi": [[0, [[list(d), m] for d, m in xi0]], [1, []], [2, []]]}
        elif c.command in ("hypertor", "e1"):
            rep = {"e1": [], "hypertor": [[0, [[[0, 0], 1]]], [1, [[[2, 3], 1]]]]}
        else:
            rep = {"q": 0, "blocks": []}
        outputs.append([0, json.dumps(rep)])
    return outputs


def test_rips_checks_reject_tampered_reports(tmp_path):
    w = workloads.WORKLOADS["rips"]
    plan = w.prepare(1, str(tmp_path))
    good = _rips_outputs(plan)
    assert _failed(w.check(plan, good)) == []

    shifted = copy.deepcopy(good)
    rep = json.loads(shifted[1][1])
    rep["xi"][0][1][0][0][0] += 1  # one xi_0 degree moved
    shifted[1][1] = json.dumps(rep)
    assert _failed(w.check(plan, shifted)) == [1]

    crashed = copy.deepcopy(good)
    crashed[3] = [2, ""]  # hypertor exits 2; e1 then has nothing to match
    assert _failed(w.check(plan, crashed)) == [3, 4]

    no_loop = copy.deepcopy(good)
    no_loop[8][1] = json.dumps({"xi": [[0, []], [1, []], [2, []]]})
    assert _failed(w.check(plan, no_loop)) == [8]

    garbled = copy.deepcopy(good)
    garbled[5][1] = "{not json"
    assert _failed(w.check(plan, garbled)) == [5]


def test_rips_checks_accept_real_reports(tmp_path):
    w = workloads.WORKLOADS["rips"]
    plan = w.prepare(1, str(tmp_path))
    cli = run.import_torpers()
    outputs = _rips_outputs(plan)
    for k in (0, 1):  # validate and xi --q 0 of the first complex
        outputs[k] = list(run.invoke(cli, plan.calls[k].argv)[:2])
    assert _failed(w.check(plan, outputs)) == []


@pytest.fixture(scope="module")
def stretch_pass(tmp_path_factory):
    """One real stretch pass: (plan, outputs)."""
    os.chdir(ROOT)
    cli = run.import_torpers()
    w = workloads.WORKLOADS["stretch"]
    plan = w.prepare(1, str(tmp_path_factory.mktemp("stretch")))
    w.reference(plan, lambda argv: run.invoke(cli, argv)[:2])
    outputs = [run.invoke(cli, c.argv)[:2] for c in plan.calls]
    return plan, outputs


def _edit(outputs, k, fn):
    out = copy.deepcopy(outputs)
    rep = json.loads(out[k][1])
    fn(rep)
    out[k] = (out[k][0], json.dumps(rep))
    return out


def _index(plan, command, fixture, q=None):
    for k, c in enumerate(plan.calls):
        if c.command == command and fixture in c.argv[2]:
            if q is None or c.argv[-1] == q:
                return k
    raise KeyError(command)


def test_stretch_checks_accept_the_real_pass(stretch_pass):
    plan, outputs = stretch_pass
    assert _failed(workloads.WORKLOADS["stretch"].check(plan, outputs)) == []


def test_stretch_checks_reject_tampered_reports(stretch_pass):
    plan, outputs = stretch_pass
    check = workloads.WORKLOADS["stretch"].check

    k = _index(plan, "xi", "circle_fig", "0")

    def shift(rep):
        rep["xi"][0][1][0][0][1] += 1

    assert _failed(check(plan, _edit(outputs, k, shift))) == [k]

    k = _index(plan, "hypertor", "sphere")

    def drop(rep):
        rep["hypertor"][0][1][0][1] += 1

    # the e1 call on the same file no longer matches either
    assert _failed(check(plan, _edit(outputs, k, drop))) == [k, k + 1]

    k = _index(plan, "recover", "circle_oneatatime")
    assert _failed(check(plan, _edit(outputs, k, lambda r: r.update(match=False)))) == [k]

    k = _index(plan, "resolve", "sphere")
    exited = list(outputs)
    exited[k] = (1, outputs[k][1])
    assert _failed(check(plan, exited)) == [k]


def test_census_checks_reject_a_wrong_orbit_count(tmp_path):
    w = workloads.WORKLOADS["census"]
    plan = w.prepare(1, str(tmp_path))
    good = [
        (0, json.dumps({"family_count": 1296, "orbit_count": 17})),
        (0, json.dumps({"family_count": 208, "orbit_count": 13})),
    ]
    assert _failed(w.check(plan, good)) == []
    wrong = [good[0], (0, json.dumps({"family_count": 208, "orbit_count": 12}))]
    assert _failed(w.check(plan, wrong)) == [1]
    assert _failed(w.check(plan, [(2, ""), good[1]])) == [0]


# -- clock ---------------------------------------------------------------------


def test_clock_scales_wall_time_by_the_probes_around_it():
    c = clock.Clock()
    result, wall, norm = c.time(sum, range(10000))
    assert result == sum(range(10000))
    assert len(c.probes) == 2
    mean_probe = (c.probes[0] + c.probes[1]) / 2
    assert norm == pytest.approx(wall * clock.REF_SECONDS / mean_probe)


def test_clock_probes_during_a_long_call_and_leaves_them_out():
    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass
        return time.perf_counter() - t0

    c = clock.Clock()
    elapsed, wall, norm = c.time(busy, 4 * clock.SAMPLE_EVERY)
    inner = len(c.probes) - 2
    assert inner >= 2
    assert 0 < elapsed - wall < inner * 10 * max(c.probes)
    assert norm > 0


# -- tracer --------------------------------------------------------------------


def _bindings(tracer):
    return {
        (id(owner), attr): vars(owner)[attr]
        for mod in tracer.modules
        for owner in [mod] + [o for o in vars(mod).values() if isinstance(o, type)]
        for attr in list(vars(owner))
    }


def test_tracer_restores_the_original_functions():
    cli = run.import_torpers()
    tracer = tracing.Tracer()
    before = _bindings(tracer)
    tracer.install()
    try:
        assert cli.main is not before[(id(cli), "main")]
        tracer.current_pass = 0
        rc, out, _ = run.invoke(
            cli, ["xi", "--input", "fixtures/circle_fig.mfc", "--field", "5"]
        )
    finally:
        tracer.uninstall()
    assert rc == 0
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_self_times_add_up_to_the_call():
    cli = run.import_torpers()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.current_pass = 0
        run.invoke(cli, ["hypertor", "--input", "fixtures/sphere.mfc"])
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    roots = a["parent"] < 0
    assert [tracer.names[i] for i in a["name"][roots]] == ["cli.main"]
    row = tracer.per_pass()[0]
    self_total = sum(row["%s.self_s" % layer] for layer in tracing.LAYERS)
    root_s = float((a["end"] - a["start"])[roots].sum())
    assert self_total == pytest.approx(root_s, rel=1e-9)
    assert all(row["%s.self_s" % layer] >= 0 for layer in tracing.LAYERS)
    assert row["complexes.parse_mfc.calls"] == 1
    assert row["hypertor.hypertor_dims.incl_s"] > 0
