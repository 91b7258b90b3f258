"""The benchmark's per-layer metrics name functions that still exist.

bench/tracing.py counts calls (COUNTED) and times spans (INCLUSIVE) by span
name.  A span name that no wrapped function carries reads 0 on every run, so
deleting or renaming a library function must fail here, not zero a metric.
"""

import importlib.util
import pathlib

import numpy as np

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_counted_or_timed_span_is_wrapped():
    tracing = _tracing()
    wrapped = {name for _, _, name in tracing.Tracer()._targets()}
    watched = set(tracing.COUNTED) | set(tracing.INCLUSIVE)
    assert watched, "the tracer watches no span"
    assert sorted(watched - wrapped) == []


def test_a_census_call_passes_through_every_tor_span(capsys):
    # a span that is wrapped but bypassed reads 0: one GF(3) orbits call must
    # enter the stacked xi, both routes, the Koszul blocks and the modules
    from torpers import cli

    tracer = _tracing().Tracer()
    argv = ["orbits", "--xi0", "[[[0, 1], 1], [[1, 0], 2]]"]
    argv += ["--xi1", "[[[1, 1], 1], [[1, 2], 1], [[2, 0], 1]]", "--field", "3"]
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = tracer.arrays()["name"]
    for name in (
        "tor.xi",
        "tor.koszul_tor",
        "tor.minimal_resolution",
        "tor.koszul_delta",
        "orbits.family_to_module",
    ):
        assert name in tracer.name_id, name
        assert (spans == tracer.name_id[name]).sum() > 0, name
    # the 72 cokernels (13 representatives, 59 spot-check members) are built
    # in one call, as one stacked module per dims array (3), so no free module
    count = {name: int((spans == nid).sum()) for name, nid in tracer.name_id.items()}
    assert count["orbits.family_to_module"] == 1
    assert count["modules.PersistenceModule"] == 3


def test_hypertor_ranks_its_total_differentials_without_rref(capsys):
    # hypertor_dims ranks the total differentials of each line of the grid
    # by one sparse prefix complex_ranks call, 3 on the circle's 3 × 2 grid:
    # its only exactla.rref spans are its own, ranking the entry complexes of
    # the one-critical circle (4 entry degrees, each with the boundary of its
    # 1-cells into its 0-cells)
    from torpers import cli

    tracer = _tracing().Tracer()
    fixture = TRACING.parent.parent / "fixtures" / "circle_fig.mfc"
    tracer.install()
    try:
        assert cli.main(["hypertor", "--input", str(fixture), "--field", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    a = tracer.arrays()
    names, parents = a["name"], a["parent"]
    under = tracer.name_id["hypertor.hypertor_dims"]
    assert (names == under).sum() == 1
    (span,) = np.flatnonzero(names == under)
    ranked = np.flatnonzero(names == tracer.name_id["exactla.complex_ranks"])
    assert parents[ranked].tolist() == [span] * 3
    inside = []
    for idx in np.flatnonzero(names == tracer.name_id.get("exactla.rref", -1)):
        up = parents[idx]
        while up >= 0 and up != span:
            up = parents[up]
        if up == span:
            inside.append(parents[idx])
    assert inside == [span] * 4, "an rref span below hypertor_dims' own"
