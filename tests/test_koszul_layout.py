"""The Koszul layouts read from a module's dims array, against a per-point
reference, and the checks that guard the scan box.

tor builds the layout of K_j once per (module, j) from shifted views of
M.dims; the reference here builds each K_j(v) point by point, subset by
subset, from dimensions clamped by hand, and its differential visits every
block, zero or not.  The two must agree at every v of the scan box
[0, bound + 1] and for every j, on homology modules of the random suite and
on random free modules and cokernels with up to five parameters.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randfix
from torpers import InternalCheckError, cli
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md
from torpers import tor
from torpers.complexes import Presentation, load_mfc


def _reference_dim(M, v):
    """dim M_v from the grid part of .dims: zero below, clamped above."""
    if any(x < 0 for x in v):
        return 0
    return int(M.dims[tuple(min(x, b) + 1 for x, b in zip(v, M.bound))])


def _reference_blocks(M, v, j):
    blocks, offset = [], 0
    for S in itertools.combinations(range(M.n), j):
        d = _reference_dim(M, gr.minus_e(v, S))
        blocks.append((S, d, offset))
        offset += d
    return blocks


def _reference_delta(M, v, j):
    p = M.p
    src = _reference_blocks(M, v, j)
    tgt = _reference_blocks(M, v, j - 1)
    tgt_off = {S: off for S, _, off in tgt}
    m = la.zeros(sum(d for _, d, _ in tgt), sum(d for _, d, _ in src))
    for S, d, off in src:
        u = gr.minus_e(v, S)
        for i, t in enumerate(S):
            S2 = tuple(a for a in S if a != t)
            block = M.step(u, t)
            sign = 1 if i % 2 == 0 else p - 1
            r0 = tgt_off[S2]
            m[r0 : r0 + block.shape[0], off : off + d] = (sign * block) % p
    return m


def _assert_layouts_match(M):
    wide = tuple(b + 1 for b in M.bound)
    for v in gr.grid(tuple(b + 1 for b in wide)):
        assert M.dim(v) == _reference_dim(M, v), v
    for v in gr.grid(wide):
        for j in range(M.n + 1):
            want = _reference_blocks(M, v, j)
            assert tor.koszul_blocks(M, v, j) == want, (v, j)
            assert tor.koszul_dim(M, v, j) == sum(d for _, d, _ in want), (v, j)
            if j:
                got = tor.koszul_delta(M, v, j)
                ref = _reference_delta(M, v, j)
                assert got.shape == ref.shape and (got == ref).all(), (v, j)


@settings(max_examples=25)
@given(seed=st.integers(0, 10**6), one_at_a_time=st.booleans())
def test_layouts_match_the_reference_on_random_homology(seed, one_at_a_time):
    make = randfix.random_one_at_a_time if one_at_a_time else randfix.random_complex
    cx = make(seed)
    p = (2, 3, 5)[seed % 3]
    data = md.ChainData(cx, p)
    for q in range(cx.max_dim() + 1):
        H = md.homology_module(data, q)
        # the grid part of .dims holds the dimensions the builder gave
        for v in gr.grid(H.bound):
            assert H.dims[tuple(x + 1 for x in v)] == H.bases[v].shape[0]
        _assert_layouts_match(H)


@st.composite
def presentations(draw):
    """A presentation with up to 5 parameters on a small critical grid."""
    n = draw(st.integers(1, 5))
    top = 2 if n <= 3 else 1
    degree = st.tuples(*[st.integers(0, top)] * n)
    gens = sorted(draw(st.lists(degree, min_size=1, max_size=4)))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        # at or above the generators it touches, at most one step beyond
        touched = draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=3))
        base = gr.join([gens[k] for k in touched])
        bump = draw(st.tuples(*[st.integers(0, 1)] * n))
        deg = tuple(min(b + e, top) for b, e in zip(base, bump))
        coeffs = {k: draw(st.integers(1, 4)) for k in touched}
        relations.append((deg, coeffs))
    return Presentation(n, gens, relations)


@settings(max_examples=40)
@given(pres=presentations(), p=st.sampled_from([2, 3, 5]), free=st.booleans())
def test_layouts_match_the_reference_on_free_modules_and_cokernels(pres, p, free):
    if free:
        M = md.free_module(gr.multiset_from_list(pres.gens), p, n=pres.n)
    else:
        M = md.present_cokernel(pres, p)
    _assert_layouts_match(M)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_one_vertex_has_one_generator_and_no_higher_tor(n, capsys, tmp_path):
    ones = (1,) * n
    path = tmp_path / "vertex.mfc"
    path.write_text("n %d\nsimplex a @ %s\n" % (n, ",".join(map(str, ones)).join("()")))
    assert cli.main(["xi", "--input", str(path), "--q", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    table = dict(data["xi"])
    assert sorted(table) == list(range(n + 1))
    assert table[0] == [[list(ones), 1]]
    assert all(table[j] == [] for j in range(1, n + 1))


def test_tor_in_the_outer_layer_fires_and_names_the_degree(fixture_path, monkeypatch):
    # C_0 of the stretched circle: drop the Koszul differential into K_0 at
    # the top corner of the scan box, an outer-layer point with M_v != 0, so
    # Tor_0 is all of M_v there
    cx = load_mfc(fixture_path.parent / "tests/golden/stretched/circle_fig.mfc")
    M = md.ChainData(cx, 5).module(0)
    v = tuple(b + 1 for b in M.bound)
    assert M.dim(v)
    original = tor.koszul_delta

    def tampered(module, w, j):
        m = original(module, w, j)
        if module is M and w == v and j == 1:
            m = np.zeros_like(m)
        return m

    tor.koszul_tor(M, range(M.n + 1))  # untampered, the scan passes
    monkeypatch.setattr(tor, "koszul_delta", tampered)
    degree = gr.to_degree(M.coords, v)
    assert degree != v
    want = "Tor_0 nonzero at %s outside the stabilized grid" % (degree,)
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        tor.koszul_tor(M, range(M.n + 1))


def test_the_layout_budget_counts_the_scan_box_and_the_widened_grid(
    fixture_path, monkeypatch
):
    # K_j(v) has C(n, j) blocks at each of the prod(bound_a + 2) scan points:
    # prod(bound_a + 2) * 2^n block entries for all j together
    data = md.ChainData(load_mfc(fixture_path / "circle_fig.mfc"), 5)
    bound = md.homology_module(data, 1).bound
    count = math.prod(b + 2 for b in bound) * 2**2
    monkeypatch.setattr(tor, "LAYOUT_LIMIT", count)
    tor.xi(md.homology_module(data, 1))  # at the limit: resolved
    widened = math.prod(b + 4 for b in bound) * 2**2
    with pytest.raises(MemoryError) as caught:
        tor.xi(md.homology_module(data, 1), widen=2)
    assert str(caught.value) == (
        "the Koszul layouts of a module over n = 2 parameters need %d block "
        "entries, over the limit %d" % (widened, count)
    )
    monkeypatch.setattr(tor, "LAYOUT_LIMIT", count - 1)
    with pytest.raises(MemoryError, match="need %d block entries" % count):
        tor.koszul_tor(md.homology_module(data, 1), 0)
