"""d2 by one chase per grid point, checked on every lift ambiguity.

hypertor.d2 pushes the Tor_2 classes and a basis of every lift ambiguity
through one zig-zag per grid point and asserts that the ambiguity rows have
zero Tor_0 coordinates.  The reference here is the earlier route: the whole
zig-zag run three times per grid point, once with plain lifts and twice with
lifts moved by fixed-seed random boundaries and kernel vectors.  The two
routes must give the same d2 on the seeded random suite, the fixtures and
the benchmark's Rips complexes.
"""

import pathlib
import re
import sys

import numpy as np
import pytest

import randfix
from torpers import InternalCheckError
from torpers import complexes as cxm
from torpers import exactla as la
from torpers import grading as gr
from torpers import hypertor as ht
from torpers import modules as md
from torpers import tor

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _reference_zigzag(data, q_chain, Hq, Hnext, v, reps, rng=None):
    """The zig-zag on the rows of reps alone; rng, when given, adds random
    boundaries to the lifts and random kernel vectors to the solutions."""
    p = data.p
    chains_q = data.module(q_chain)
    chains_up = data.module(q_chain + 1)
    lifts = []
    for (S, d, off), (_, width, _) in zip(
        tor.koszul_blocks(Hq, v, 2), tor.koszul_blocks(chains_q, v, 2)
    ):
        if d == 0:
            lifts.append(la.zeros(reps.shape[0], width))
            continue
        u = gr.minus_e(v, S)
        block = la.matmul(reps[:, off : off + d], Hq.bases[u], p)
        if rng is not None and Hq.reduce_by[u].shape[0]:
            noise = rng.integers(0, p, size=(reps.shape[0], Hq.reduce_by[u].shape[0]))
            block = (block + la.matmul(noise, Hq.reduce_by[u], p)) % p
        lifts.append(block)
    lift = np.concatenate(lifts, axis=1)
    comps1 = la.matmul(lift, tor.koszul_delta(chains_q, v, 2).T, p)
    horizontal = ht._horizontal(data, q_chain + 1, v, 1)
    found = la.solve(horizontal, comps1.T, p)
    assert found is not None
    ws = found[0].T
    if rng is not None:
        kern = la.kernel_basis(horizontal, p)
        if kern.shape[0]:
            noise = rng.integers(0, p, size=(ws.shape[0], kern.shape[0]))
            ws = (ws + la.matmul(noise, kern, p)) % p
    out = la.matmul(ws, tor.koszul_delta(chains_up, v, 1).T, p)
    assert not la.matmul(out, data.boundary_at(q_chain + 1, v).T, p).any()
    c = la.quotient_coords(out, Hnext.reduce_by[v], Hnext.bases[v], p)
    assert c is not None
    return c


def _reference_d2(data, q):
    """d2 by three runs per grid point: plain, then two seeded random lifts."""
    p = data.p
    Hq = md.homology_module(data, q)
    Hnext = md.homology_module(data, q + 1)
    src = tor.koszul_tor(Hq, 2)
    tgt = tor.koszul_tor(Hnext, 0)
    images = {
        v: la.row_space(tor.koszul_delta(Hnext, v, 1).T, p) for v in src.reps
    }

    def run(rng):
        mats = {}
        for v, reps in src.reps.items():
            classes = _reference_zigzag(data, q, Hq, Hnext, v, reps, rng=rng)
            tgt_reps = tgt.reps.get(v, la.zeros(0, Hnext.dim(v)))
            c = la.quotient_coords(classes, images[v], tgt_reps, p)
            assert c is not None
            mats[v] = (-c.T) % p
        return mats

    plain = run(None)
    for seed in (1, 2):
        again = run(np.random.default_rng(seed))
        for v in plain:
            assert (plain[v] == again[v]).all(), v
    mats = {gr.to_degree(data.coords, v): m for v, m in plain.items()}
    return mats, src.multiset(), tgt.multiset()


def _ring_rips(seed):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return cxm.parse_mfc(inputs.ring_rips(seed)[0])


def _assert_matches_reference(data):
    for q in (0, 1):
        got = ht.d2(data, q)
        mats, source, target = _reference_d2(data, q)
        assert got.source_dims == source and got.target_dims == target
        assert sorted(got.mats) == sorted(mats)
        for v, m in mats.items():
            assert got.mats[v].shape == m.shape and (got.mats[v] == m).all(), v


@pytest.mark.parametrize("one_at_a_time", [False, True])
@pytest.mark.parametrize("seed", range(24))
def test_d2_matches_the_three_run_reference_on_random_complexes(seed, one_at_a_time):
    make = randfix.random_one_at_a_time if one_at_a_time else randfix.random_complex
    _assert_matches_reference(md.ChainData(make(seed), (2, 3, 5)[seed % 3]))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["circle_fig", "circle_oneatatime", "sphere"])
def test_d2_matches_the_three_run_reference_on_the_fixtures(name, p):
    _assert_matches_reference(md.ChainData(cxm.load_mfc(FIXTURES / (name + ".mfc")), p))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_d2_matches_the_three_run_reference_on_rips_complexes(seed):
    _assert_matches_reference(md.ChainData(_ring_rips(seed), 3))


def _counted_chase(monkeypatch):
    """Wrap _zigzag and the three calls it makes once per grid point; returns
    one record per chase: its point, its call counts and its row counts."""
    counts = dict.fromkeys(("_horizontal", "solve", "rref"), 0)
    for owner, name in ((ht, "_horizontal"), (la, "solve"), (la, "rref")):

        def counted(*args, _f=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    chases, zigzag = [], ht._zigzag

    def chase(data, q_chain, Hq, Hnext, v, reps):
        before = dict(counts)
        c = zigzag(data, q_chain, Hq, Hnext, v, reps)
        calls = {k: counts[k] - before[k] for k in counts}
        chases.append((v, calls, reps.shape[0], c.shape[0]))
        return c

    monkeypatch.setattr(ht, "_zigzag", chase)
    return chases


@pytest.mark.parametrize(
    "cx, bounds_kernel", [("circle_fig", (1, 0)), ("rips", (38, 56))]
)
def test_one_chase_per_grid_point(cx, bounds_kernel, monkeypatch):
    # one _horizontal and one solve, so one elimination, per grid point of
    # the Tor_2 classes; the chase carries the classes, the boundaries under
    # every lifted block and a basis of the horizontal kernel, read off the
    # solve's RREF (on the Rips complex both ambiguities are there)
    if cx == "rips":
        data = md.ChainData(_ring_rips(1), 3)
    else:
        data = md.ChainData(cxm.load_mfc(FIXTURES / "circle_fig.mfc"), 5)
    Hq = md.homology_module(data, 0)
    points = sorted(tor.koszul_tor(Hq, 2).reps)
    chases = _counted_chase(monkeypatch)
    ht.d2(data, 0)
    assert sorted(v for v, *_ in chases) == points and points
    totals = np.zeros(2, dtype=int)
    for v, calls, k, rows in chases:
        assert calls == {"_horizontal": 1, "solve": 1, "rref": 1}, v
        bounds = sum(
            Hq.reduce_by[gr.minus_e(v, S)].shape[0]
            for S, width, _ in tor.koszul_blocks(data.module(0), v, 2)
            if width
        )
        horizontal = ht._horizontal(data, 1, v, 1)
        kernel = horizontal.shape[1] - la.rank(horizontal, data.p)
        assert rows == k + bounds + kernel, v
        totals += (bounds, kernel)
    assert tuple(totals) == bounds_kernel


def test_a_lift_dependent_chase_names_the_degree(fixture_path, monkeypatch):
    # on the stretched circle index points and degrees differ: let the last
    # ambiguity row of the chase come out as the first class, whose Tor_0
    # coordinate is nonzero; d2 must name the degree of that point
    cx = cxm.load_mfc(fixture_path.parent / "tests/golden/stretched/circle_fig.mfc")
    data = md.ChainData(cx, 5)
    zigzag, seen = ht._zigzag, []

    def lift_dependent(data, q_chain, Hq, Hnext, v, reps):
        c = zigzag(data, q_chain, Hq, Hnext, v, reps)
        assert c.shape[0] > reps.shape[0]
        c[-1] = c[0]
        seen.append(v)
        return c

    monkeypatch.setattr(ht, "_zigzag", lift_dependent)
    with pytest.raises(InternalCheckError, match="d2 depends on lift choices") as e:
        ht.d2(data, 0)
    degree = gr.to_degree(data.coords, seen[-1])
    assert degree != seen[-1]
    assert re.search(re.escape("at %s;" % (degree,)), str(e.value))


def test_d2_ranks_each_boundary_once(monkeypatch, capsys):
    # H_0 and H_1 read the ranks of ∂_1 from their one ChainData, which
    # ranks every boundary at every point by one prefix complex_ranks call
    # per line: 3 on circle_fig's 3 × 2 grid, where two la.rank calls per
    # point of each homology module made 24.  The other calls are the Koszul
    # ranks of the two modules and the blocks' ranks in the text
    from torpers import cli

    complex_ranks, lines = la.complex_ranks, []

    def recording(cols, p, steps=None, length=1):
        if steps is not None:
            lines.append((len(cols), length))
        return complex_ranks(cols, p, steps, length)

    monkeypatch.setattr(la, "complex_ranks", recording)
    argv = ["d2", "--q", "0", "--input", str(FIXTURES / "circle_fig.mfc")]
    assert cli.main(argv + ["--field", "5"]) == 0
    capsys.readouterr()
    assert lines == [(1, 2)] * 3
