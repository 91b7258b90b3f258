"""Acceptance checklist.

Each test here is one item of the release checklist; run

    pytest tests/test_acceptance.py -v

to get one pass/fail line per item.  Everything asserted below is pinned to
an independent oracle: hand-computed tables for the bundled fixtures, brute
force counts for the orbit censuses, and the unfiltered chain complex for
the randomized recovery checks.
"""

import numpy as np

import randfix
from test_orbits import (
    EXPECTED_FOUR_LINES,
    XI0_FOUR_LINES,
    XI0_LINE,
    XI0_MIXED,
    XI1_FOUR_LINES,
    XI1_LINE,
    XI1_MIXED,
)
from torpers import ValidationError
from torpers import complexes as cxm
from torpers import exactla as la
from torpers import grading as gr
from torpers import hypertor as ht
from torpers import modules as md
from torpers import orbits as ob
from torpers import tor

FIELDS = [2, 3, 5]


def _load(fixture_path, name):
    return cxm.load_mfc(str(fixture_path / name))


# 1. xi tables of the circle fixture, all three fields


def test_circle_homology_xi_tables(fixture_path):
    cx = _load(fixture_path, "circle_fig.mfc")
    for p in FIELDS:
        H0 = md.homology_module(md.ChainData(cx, p), 0)
        t0 = tor.xi(H0).tables
        assert t0[0] == {(0, 0): 3}
        assert t0[1] == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
        assert t0[2] == {(2, 1): 1}
        H1 = md.homology_module(md.ChainData(cx, p), 1)
        t1 = tor.xi(H1).tables
        assert t1[0] == {(2, 1): 1}
        assert t1[1] == {} and t1[2] == {}  # free on one generator


# 2. hypertor table of the circle fixture


def test_circle_hypertor_table(fixture_path):
    cx = _load(fixture_path, "circle_fig.mfc")
    for p in FIELDS:
        tables = ht.hypertor_dims(md.ChainData(cx, p))
        assert tables[0] == {(0, 0): 3}
        assert tables[1] == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
        assert all(tables[ell] == {} for ell in tables if ell >= 2)


# 3. the circle's d2 is a 1x1 invertible map (2,1) -> (2,1) with entry -1


def test_circle_d2_is_minus_identity(fixture_path):
    cx = _load(fixture_path, "circle_fig.mfc")
    for p in (3, 5):
        result = ht.d2(md.ChainData(cx, p), 0)
        assert result.source_dims == {(2, 1): 1}
        assert result.target_dims == {(2, 1): 1}
        assert list(result.mats) == [(2, 1)]
        assert result.mats[(2, 1)].tolist() == [[p - 1]]
        assert result.rank() == 1


# 4. recovery complex of the one-at-a-time circle


def test_one_at_a_time_recovery_shape(fixture_path):
    cx = _load(fixture_path, "circle_oneatatime.mfc")
    for p in FIELDS:
        t = ht.build_t_complex(md.ChainData(cx, p))
        assert [t.dim(ell) for ell in range(3)] == [5, 7, 2]
        assert [la.rank(t.boundary(ell), p) for ell in (1, 2)] == [4, 2]
        assert t.betti() == (1, 1, 0)
        report = ht.recovered_homology(md.ChainData(cx, p))
        assert report["match"] is True


# 5. sphere fixture: degeneration, the quotient complex, recovered Betti


def test_sphere_recovery_and_quotient(fixture_path):
    cx = _load(fixture_path, "sphere.mfc")
    for p in FIELDS:
        assert ht.e1_page(md.ChainData(cx, p)).verdict is True
        report = ht.recovered_homology(md.ChainData(cx, p))
        assert report["q_dims"][2] == 1
        assert report["q_classes"][2] == [
            {"kind": "copy", "cell": "s2", "degree": [3, 0]}
        ]
        assert report["q_dims"][3] == 1
        assert report["q_classes"][3][0]["degree"] == [3, 2]
        assert report["h_q_zero"] is True
        assert report["betti"][:3] == [1, 0, 1]
        assert not any(report["betti"][3:])
        assert report["match"] is True


# 6. randomized property suite: 220 fixtures, fields cycling through 2, 3, 5


def _general_properties(seed):
    cx = randfix.random_complex(seed)
    p = FIELDS[seed % 3]
    top = max(c.dim for c in cx.cells.values())
    n = cx.n
    # (a) chains modules are free enough: top Tor always vanishes
    for i in range(top + 1):
        C = md.ChainData(cx, p).module(i)
        assert tor.koszul_tor(C, n).multiset() == {}, (seed, i)
    # (b) hypertor vanishes at and beyond n + dim X
    tables = ht.hypertor_dims(md.ChainData(cx, p))
    assert tables[top + n] == {}, seed
    # (f) the E1 page's hypertor equals a standalone hypertor run, and d2
    # (with its lift-independence check) runs out of every row below the top
    assert ht.e1_page(md.ChainData(cx, p)).hyper == tables, seed
    for q in range(top):
        ht.d2(md.ChainData(cx, p), q)
    for q in range(top + 1):
        H = md.homology_module(md.ChainData(cx, p), q)
        # (c) Koszul homology against the minimal resolution, cross-checked
        # inside xi; (e) the table is stable under widening the grid
        table = tor.xi(H)
        assert table.tables == tor.xi(H, widen=1).tables, (seed, q)
        # (d) the resolution's Euler characteristic at v is dim M_v
        res = table.resolution
        for v in gr.grid(H.bound):
            euler = sum(
                (-1) ** j * len(res.present[j][v])
                for j in range(len(res.gen_degrees))
            )
            assert euler == H.dim(v), (seed, q, v)


def _one_at_a_time_properties(seed):
    cx = randfix.random_one_at_a_time(seed)
    p = FIELDS[seed % 3]
    # (g) recovered Betti numbers equal the unfiltered computation
    report = ht.recovered_homology(md.ChainData(cx, p))
    assert report["single_step"]["ok"], seed
    assert report["h_q_zero"], seed
    assert report["match"], (seed, report["betti"], report["direct"])


def test_random_property_suite():
    for seed in range(120):
        _general_properties(seed)
    for seed in range(120, 220):
        _one_at_a_time_properties(seed)


# 7. census for two generators at the origin and four incomparable relations,
#    over GF(5)


def test_two_generator_four_relation_census_gf5():
    report = ob.classify(XI0_FOUR_LINES, XI1_FOUR_LINES, 5)
    assert len(report.orbits) == 17
    xi2_tables = [e["xi"][2] for e in report.entries]
    # 8 distinct syzygy tables: the fifteen slope patterns collapse because
    # a pattern whose first and last slopes agree has its pair syzygy
    # factoring through the two triple syzygies, landing it in the same
    # table as the neighbor-equal patterns
    assert len({tuple(sorted(t.items())) for t in xi2_tables}) == 8
    for entry in report.entries:
        label = entry["label"]
        assert label is not None
        if label in EXPECTED_FOUR_LINES:
            assert entry["xi"][2] == EXPECTED_FOUR_LINES[label], label
        else:
            # generic: four distinct slopes
            assert label.startswith("(0, inf, 1, a), a = ")
            assert entry["xi"][2] == {(2, 3): 1, (3, 2): 1}, label
    for _, _, injective in report.groups:
        assert injective is True


# 8. mixed generator degrees over GF(3): phi_bar collides, Phi separates


def test_phi_bar_collision_gf3():
    report = ob.classify(XI0_MIXED, XI1_MIXED, 3)
    data = report.to_json()
    collisions = [
        (key, ids)
        for key, ids, injective in report.groups
        if not injective and dict(key)[2] == ((((2, 1), 1),))
    ]
    assert len(collisions) == 1
    _, ids = collisions[0]
    assert len(ids) >= 3
    y_encs = {report.entries[k]["y_enc"] for k in ids}
    assert len(y_encs) == 1  # identical Grassmannian coordinates
    assert data["phi_separates"] is True


# 9. one parameter: two orbits for every field, counts never depend on q


def test_single_parameter_two_orbits():
    for q in FIELDS:
        report = ob.classify(XI0_LINE, XI1_LINE, q)
        assert len(report.orbits) == 2, q
    rng = np.random.default_rng(7)
    for _ in range(3):
        gens = sorted(
            (int(rng.integers(0, 3)),) for _ in range(int(rng.integers(2, 4)))
        )
        rel_deg = max(g[0] for g in gens) + int(rng.integers(1, 4))
        xi0 = gr.multiset_from_list(gens)
        xi1 = {(rel_deg,): int(rng.integers(1, 3))}
        counts = set()
        try:
            for q in FIELDS:
                counts.add(len(ob.classify(xi0, xi1, q).orbits))
        except ValidationError:
            continue  # enumeration budget; skip this draw
        assert len(counts) == 1, (xi0, xi1, counts)
