"""The E1 table assembled one cell at a time.

hypertor.e1_page computes Tor_q(C_i) from one small up-set module per
entry pattern and places each pattern's cycles at the cell's slots.  These
tests hold it against the route it replaced, a Koszul scan over all of C_i
(kept here as _scan_table), on the seeded random suite (multi-critical
cells included), on the remapped copies that test_critical_grid compares
and on hand cases for n = 1 and n = 3; against a closed form for n = 2
antichains; and they check that a disagreement between the two routes on
one pattern is caught and named.  A pattern's Koszul homology, read on its
lcm lattice alone, must equal a scan of its whole box array for array, on
every pattern of the suite and on random antichains with up to five
parameters.
"""

import numpy as np
import pytest

import randfix
from test_critical_grid import _random_maps
from torpers import InternalCheckError
from torpers import complexes as cxm
from torpers import exactla as la
from torpers import grading as gr
from torpers import hypertor as ht
from torpers import modules as md
from torpers import tor


def _scan_table(data):
    """(i, q) -> KoszulTor by one Koszul scan over each whole chain module."""
    return {
        (i, q): kt
        for i in range(data.top + 1)
        for q, kt in tor.koszul_tor(data.module(i), range(data.n + 1)).items()
    }


def _assert_matches_scan(cx, p):
    data = md.ChainData(cx, p)
    page = ht.e1_page(data)
    want = _scan_table(data)
    assert sorted(page.table) == sorted(want)
    for key, kt in want.items():
        got = page.table[key]
        assert got.multiset() == kt.multiset(), key
        assert sorted(got.reps) == sorted(kt.reps), key
        for v, reps in kt.reps.items():
            assert (la.row_space(got.reps[v], p) == la.row_space(reps, p)).all(), (
                key,
                v,
            )
    return page


@pytest.mark.parametrize("seed", range(16))
def test_cell_table_matches_the_scan_on_random_complexes(seed):
    p = (2, 3, 5)[seed % 3]
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        _assert_matches_scan(cx, p)
        _assert_matches_scan(randfix.remap_complex(cx, _random_maps(cx, seed)), p)


@pytest.mark.parametrize("seed", range(16))
def test_cell_reps_equal_the_scan_array_for_array(seed):
    # the placed cycles need no reduction modulo C_i's Koszul boundaries:
    # their RREF is the very array the scan gives
    p = (2, 3, 5)[seed % 3]
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        data = md.ChainData(cx, p)
        got = ht._chain_tor(data)
        for key, kt in _scan_table(data).items():
            assert sorted(got[key].reps) == sorted(kt.reps), key
            for v, reps in kt.reps.items():
                have = got[key].reps[v]
                assert have.shape == reps.shape and (have == reps).all(), (key, v)


def test_the_random_suite_has_multi_critical_cells():
    assert any(
        len(c.degrees) > 1
        for seed in range(16)
        for c in randfix.random_complex(seed).cells.values()
    )


def test_cell_table_one_parameter():
    cx = cxm.parse_mfc(
        "n 1\nsimplex a @ (0)\nsimplex b @ (2)\nsimplex ab a b @ (3)\n"
    )
    page = _assert_matches_scan(cx, 3)
    assert page.dims(0, 0) == {(0,): 1, (2,): 1}
    assert page.dims(1, 0) == {(3,): 1}
    assert page.dims(0, 1) == {} and page.dims(1, 1) == {}


def test_cell_table_three_incomparable_entries():
    # the vertex a is k[U] for U generated by 2e_1, 2e_2, 2e_3: its Koszul
    # complex resolves it with pairwise joins and the triple join
    cx = cxm.parse_mfc(
        "n 3\n"
        "simplex a @ (2,0,0) (0,2,0) (0,0,2)\n"
        "simplex b @ (0,0,0)\n"
        "simplex ab a b @ (2,1,1) (1,2,3)\n"
    )
    page = _assert_matches_scan(cx, 5)
    assert page.dims(0, 0) == {(0, 0, 0): 1, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    assert page.dims(0, 1) == {(2, 2, 0): 1, (2, 0, 2): 1, (0, 2, 2): 1}
    assert page.dims(0, 2) == {(2, 2, 2): 1}
    assert page.dims(0, 3) == {}
    assert page.dims(1, 0) == {(2, 1, 1): 1, (1, 2, 3): 1}
    assert page.dims(1, 1) == {(2, 2, 3): 1}


# -- the n = 2 closed form -----------------------------------------------------


def _random_antichain(rng, size):
    xs = sorted(rng.choice(6, size=size, replace=False).tolist())
    ys = sorted(rng.choice(6, size=size, replace=False).tolist(), reverse=True)
    return [(int(x), int(y)) for x, y in zip(xs, ys)]


def _antichain_oracle(antichain):
    """xi_0, xi_1, xi_2 of k[U] for an n = 2 antichain, in closed form."""
    pts = sorted(antichain)
    joins = [gr.join(pair) for pair in zip(pts, pts[1:])]
    return {0: gr.multiset_from_list(pts), 1: gr.multiset_from_list(joins), 2: {}}


@pytest.mark.parametrize("seed", range(12))
def test_pattern_tor_matches_the_antichain_formula(seed):
    rng = np.random.default_rng(seed)
    p = (2, 3, 5)[seed % 3]
    for size in range(1, 5):
        antichain = _random_antichain(rng, size)
        cell = cxm.Cell("c", 0, (), antichain)
        own = gr.critical_coords(cell.degrees, 2)
        pattern = tuple(gr.to_index(own, u) for u in cell.degrees)
        kts = ht._pattern_tor(pattern, cell, 2, p)
        got = {q: gr.at_degrees(own, kt.dims) for q, kt in kts.items()}
        assert got == _antichain_oracle(antichain), antichain


# -- the lcm lattice route against the scan of the pattern's box ---------------


PRIMES = (2, 3, 5, 3037000493)


def _assert_lattice_matches_scan(pattern, n, p):
    # the Koszul homology of k[U_P] on the lcm lattice of P is the very table
    # a koszul_tor scan of the box [0, join(P)] and its outer layer gives
    coords = gr.dense_coords(gr.join(pattern))
    M = md._inclusion_module(n, coords, md._present(coords, [pattern]), p)
    want = tor.koszul_tor(M, range(n + 1))
    got = ht._lattice_tor(pattern, n, p)
    assert sorted(got) == sorted(want)
    for q, kt in want.items():
        assert got[q].dims == kt.dims, (pattern, q)
        assert list(got[q].reps) == list(kt.reps), (pattern, q)
        for v, reps in kt.reps.items():
            have = got[q].reps[v]
            assert have.shape == reps.shape and (have == reps).all(), (pattern, q, v)


@pytest.mark.parametrize("seed", range(24))
def test_lattice_tor_equals_the_scan_on_the_random_suite(seed):
    patterns = set()
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        for c in (cx, randfix.remap_complex(cx, _random_maps(cx, seed))):
            for cell in c.cells.values():
                own = gr.critical_coords(cell.degrees, c.n)
                patterns.add(tuple(gr.to_index(own, u) for u in cell.degrees))
    for pattern in sorted(patterns):
        for p in PRIMES:
            _assert_lattice_matches_scan(pattern, 2, p)


@pytest.mark.parametrize("n", range(1, 6))
def test_lattice_tor_equals_the_scan_on_random_antichains(n):
    rng = np.random.default_rng(n)
    for _ in range(12):
        size = int(rng.integers(1, 5))
        points = {tuple(rng.integers(0, 3, n).tolist()) for _ in range(size)}
        antichain = [
            u for u in points if not any(w != u and gr.leq(w, u) for w in points)
        ]
        own = gr.critical_coords(antichain, n)
        pattern = tuple(sorted(gr.to_index(own, u) for u in antichain))
        for p in PRIMES:
            _assert_lattice_matches_scan(pattern, n, p)


def test_lattice_tor_equals_the_scan_on_a_wide_antichain():
    # 25 incomparable points have 2^25 - 1 nonempty subsets but only 325
    # distinct joins: the lattice is found by closing P under joins, with
    # about 25 * 325 joins taken, not one per subset
    pattern = tuple((i, 24 - i) for i in range(25))
    for p in PRIMES:
        _assert_lattice_matches_scan(pattern, 2, p)


# -- a disagreement between the routes is caught -------------------------------


@pytest.mark.parametrize("route", ["lattice_tor", "minimal_resolution"])
def test_route_disagreement_names_the_cell(monkeypatch, fixture_path, route):
    # the edge ab enters at (0,1) and is the first cell of its pattern, the
    # index point (0, 1) of its own grid, a box with bound (0, 1)
    cx = cxm.load_mfc(fixture_path / "circle_fig.mfc")
    if route == "lattice_tor":
        original = ht._lattice_tor

        def tampered(pattern, n, p):
            out = original(pattern, n, p)
            if pattern == ((0, 1),):
                out[1].dims[(0, 1)] = 1
            return out

        monkeypatch.setattr(ht, "_lattice_tor", tampered)
    else:
        original = tor.minimal_resolution

        def tampered(M):
            out = original(M)
            if M.bound == (0, 1):
                out.gen_degrees.append([(0, 1)])
            return out

        monkeypatch.setattr(tor, "minimal_resolution", tampered)
    with pytest.raises(InternalCheckError, match=r"1-cell 'ab' entering at \[\(0, 1\)\]"):
        ht.e1_page(md.ChainData(cx, 3))
