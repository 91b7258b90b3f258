"""Hypertor, both spectral sequence pages, and the recovery complex T."""

import re

import numpy as np
import pytest

import randfix
from test_complex_ranks import first_dd_failure, line_top, moved
from test_mutation_table import _largest_rank_one_low
from torpers import InternalCheckError, ValidationError
from torpers import complexes as cxm
from torpers import exactla as la
from torpers import grading as gr
from torpers import hypertor as ht
from torpers import modules as md
from torpers import tor


@pytest.fixture(scope="module", params=[2, 3, 5])
def p(request):
    return request.param


@pytest.fixture(scope="module")
def circle(fixture_path_mod):
    return cxm.load_mfc(fixture_path_mod / "circle_fig.mfc")


@pytest.fixture(scope="module")
def sphere(fixture_path_mod):
    return cxm.load_mfc(fixture_path_mod / "sphere.mfc")


@pytest.fixture(scope="module")
def oneatatime(fixture_path_mod):
    return cxm.load_mfc(fixture_path_mod / "circle_oneatatime.mfc")


SEGMENT_SIMULTANEOUS = """\
n 2
simplex a @ (0,0)
simplex b @ (0,0)
simplex ab a b @ (0,0)
"""


def test_hypertor_circle(circle, p):
    dims = ht.hypertor_dims(md.ChainData(circle, p))
    assert dims[0] == {(0, 0): 3}
    assert dims[1] == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    assert dims[2] == {}
    assert dims[3] == {}


def test_hypertor_sphere(sphere, p):
    dims = ht.hypertor_dims(md.ChainData(sphere, p))
    assert dims[0] == {(0, 0): 2}
    assert dims[1] == {(0, 0): 2, (2, 1): 1}
    assert dims[2] == {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1}
    assert dims[3] == {(3, 2): 1}
    assert dims[4] == {}


def test_hypertor_single_vertex():
    cx = cxm.parse_mfc("n 2\nsimplex a @ (0,0)\n")
    dims = ht.hypertor_dims(md.ChainData(cx, 3))
    assert dims[0] == {(0, 0): 1}
    assert dims[1] == {}
    assert dims[2] == {}


def test_e1_circle_degenerates(circle, p):
    page = ht.e1_page(md.ChainData(circle, p))
    assert page.verdict is True
    assert page.dims(0, 0) == {(0, 0): 3}
    assert page.dims(1, 0) == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    assert page.dims(0, 1) == {}
    assert page.dims(1, 1) == {}
    for mats in page.d1.values():
        for m in mats.values():
            assert not m.any()


def test_e1_sphere(sphere):
    page = ht.e1_page(md.ChainData(sphere, 2))
    assert page.verdict is True
    assert page.dims(1, 0) == {(0, 0): 2, (2, 1): 1}
    assert page.dims(2, 0) == {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1}
    assert page.dims(2, 1) == {(3, 2): 1}
    assert page.dims(1, 1) == {}


def test_e1_verdict_false_for_simultaneous_faces():
    cx = cxm.parse_mfc(SEGMENT_SIMULTANEOUS)
    page = ht.e1_page(md.ChainData(cx, 2))
    assert page.verdict is False
    # the cellular boundary of the edge survives to a nonzero d1
    assert any(
        m.any() for mats in page.d1.values() for m in mats.values()
    )


def test_e1_json_shape(circle):
    page = ht.e1_page(md.ChainData(circle, 3))
    out = page.to_json()
    assert out["verdict"] is True
    ids = {(cell["i"], cell["q"]) for cell in out["e1"]}
    assert (0, 0) in ids and (1, 0) in ids
    assert out["hypertor"][0] == [0, [[[0, 0], 3]]]


def test_d2_circle_kills_the_fake_class(circle, p):
    res = ht.d2(md.ChainData(circle, p), 0)
    assert res.source_dims == {(2, 1): 1}
    assert res.target_dims == {(2, 1): 1}
    assert set(res.mats) == {(2, 1)}
    m = res.mats[(2, 1)]
    assert m.shape == (1, 1)
    assert m[0, 0] == (p - 1) % p
    assert res.rank() == 1


def test_d2_circle_top_row_is_empty(circle):
    # H_1 is free (the circle class never dies), so Tor_2 of it vanishes
    res = ht.d2(md.ChainData(circle, 5), 1)
    assert res.source_dims == {}
    assert res.target_dims == {}
    assert res.mats == {}


def test_d2_contractible_is_empty():
    cx = cxm.parse_mfc(SEGMENT_SIMULTANEOUS)
    res = ht.d2(md.ChainData(cx, 3), 0)
    assert res.mats == {}
    assert res.source_dims == {}


def test_d2_rejects_one_parameter_input():
    cx = cxm.parse_mfc("n 1\nsimplex a @ (0)\n")
    with pytest.raises(ValidationError):
        ht.d2(md.ChainData(cx, 2), 0)


def test_d2_json_carries_degrees(circle):
    out = ht.d2(md.ChainData(circle, 3), 0).to_json()
    assert out["q"] == 0
    assert out["blocks"][0]["degree"] == [2, 1]
    assert out["blocks"][0]["matrix"] == [[2]]


def test_t_complex_circle(circle, p):
    t = ht.build_t_complex(md.ChainData(circle, p))
    assert [t.dim(ell) for ell in range(len(t.labels))] == [3, 3]
    assert t.betti() == (1, 1)
    assert la.rank(t.boundary(1), p) == 2


def test_t_complex_one_at_a_time(oneatatime, p):
    t = ht.build_t_complex(md.ChainData(oneatatime, p))
    assert [t.dim(ell) for ell in range(len(t.labels))] == [5, 7, 2]
    assert [la.rank(t.boundary(ell), p) for ell in (1, 2)] == [4, 2]
    assert t.betti() == (1, 1, 0)
    # the two extra 1-elements are the identification classes of B and C
    virtual = [lab for lab in t.labels[1] if lab[1] == 1]
    assert sorted(lab[3] for lab in virtual) == [(1, 1), (4, 1)]
    # canonical copies use the lexicographically least entry degree
    assert (0, 0, "B", (0, 1)) in t.canonical
    assert (0, 0, "B", (1, 0)) not in t.canonical


def test_t_complex_sphere_boundary(sphere):
    t = ht.build_t_complex(md.ChainData(sphere, 5))
    assert [t.dim(ell) for ell in range(len(t.labels))] == [2, 3, 4, 1]
    assert t.betti() == (1, 0, 1, 0)
    # the virtual 3-cell hits the difference of the two copies of s2
    col = t.d[3][:, 0]
    hits = {t.labels[2][k]: int(c) for k, c in enumerate(col) if c}
    assert set(hits) == {(2, 0, "s2", (1, 2)), (2, 0, "s2", (3, 0))}
    assert sorted(hits.values()) == [1, 4]


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (1, 2)])
def test_t_complex_cross_checks_the_e1_page(oneatatime, monkeypatch, i, j):
    real = ht.e1_page

    def tampered(data):
        page = real(data)
        page.table[(i, j)].dims[(9, 9)] = 1
        return page

    monkeypatch.setattr(ht, "e1_page", tampered)
    with pytest.raises(InternalCheckError, match="Tor_%d of C_%d" % (j, i)):
        ht.build_t_complex(md.ChainData(oneatatime, 2))


def test_hypertor_above_the_e1_sum_is_a_bug(sphere, monkeypatch):
    # E-infinity is a subquotient of E1: a rank reported one too low raises
    # hypertor above the E1 sum, and e1_page names ell and the degree.  The
    # sphere is multi-critical, so hypertor_dims has no entry complexes to
    # catch it first.  Only the prefix calls, hypertor_dims' lines, are
    # mutated: the Koszul ranks of the entry patterns, which E1 is made of,
    # stay right
    original, mutated = la.complex_ranks, _largest_rank_one_low(la.complex_ranks)

    def lines_only(cols, p, steps=None, length=1):
        return (original if steps is None else mutated)(cols, p, steps, length)

    monkeypatch.setattr(la, "complex_ranks", lines_only)
    want = "hypertor_0 at (0, 1) is 1, above the E1 sum 0"
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        ht.e1_page(md.ChainData(sphere, 2))


def test_a_wrong_rank_disagrees_with_the_entry_complexes(circle, monkeypatch):
    # every cell of circle_fig enters once: hyper_ell(v) is H_ell of the cells
    # entering at v, ranked without la.complex_ranks
    monkeypatch.setattr(la, "complex_ranks", _largest_rank_one_low(la.complex_ranks))
    want = "hypertor_0 at (0, 1) is 1, the cells entering there give 0"
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        ht.hypertor_dims(md.ChainData(circle, 5))


@pytest.mark.parametrize(
    "stem, want",
    [
        # checked before the entry complexes, which would name hypertor_0
        ("circle_fig", "the cells present at (0, 0) give 3, but the alternating "
         "sum of hyper_ell at or below it is 4"),
        ("sphere", "the cells present at (0, 0) give 0, but the alternating sum "
         "of hyper_ell at or below it is 1"),
    ],
)
def test_the_euler_identity_catches_one_moved_dimension(
    fixture_path, monkeypatch, stem, want
):
    # a rank of -1 for D_0, at the first grid point only (the first step of
    # the first line's prefix call), raises hyper_0 there and moves no other
    # dimension: every alternating sum above it is one too high
    ranks, calls = la.complex_ranks, []

    def moved(cols, p, steps, length):
        out = ranks(cols, p, steps, length)
        calls.append(1)
        if len(calls) == 1:
            out[0][0] -= 1
        return out

    monkeypatch.setattr(la, "complex_ranks", moved)
    data = md.ChainData(cxm.load_mfc(fixture_path / (stem + ".mfc")), 5)
    with pytest.raises(InternalCheckError, match="^hypertor: " + re.escape(want)):
        ht.hypertor_dims(data)


def test_entry_complexes_match_hypertor_on_one_critical_complexes(
    circle, sphere, oneatatime
):
    # the second route for hypertor against the total complex, on the seeded
    # random suite; multi-critical complexes have no entry complexes
    one_critical = 0
    for seed in range(20):
        for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
            data = md.ChainData(cx, 3)
            entry = ht._entry_dims(data)
            if entry is None:
                assert any(len(c.degrees) > 1 for c in cx.cells.values())
                continue
            one_critical += 1
            got = {ell: gr.at_degrees(data.coords, ms) for ell, ms in entry.items()}
            assert got == ht.hypertor_dims(data), seed
    assert one_critical == 28
    assert ht._entry_dims(md.ChainData(circle, 5)) is not None
    assert ht._entry_dims(md.ChainData(sphere, 2)) is None
    assert ht._entry_dims(md.ChainData(oneatatime, 3)) is None


def test_a_nonzero_d1_with_equal_sums_is_a_bug(sphere, monkeypatch):
    # equal E1 sums force every d_r to vanish, so a d1 that is not zero then
    # names its (i, q) and the degree
    class_coords = ht.tor.class_coords

    def bumped(M, j, v, rows, kt):
        c = class_coords(M, j, v, rows, kt)
        if c is not None and c.size:
            c = c.copy()
            c[0, 0] = 1
        return c

    monkeypatch.setattr(ht.tor, "class_coords", bumped)
    want = "d1 out of E1_(1,0) nonzero at (0, 0), though E1 sums to hypertor"
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        ht.e1_page(md.ChainData(sphere, 2))


def test_t_complex_needs_the_verdict():
    cx = cxm.parse_mfc(SEGMENT_SIMULTANEOUS)
    with pytest.raises(ValidationError):
        ht.build_t_complex(md.ChainData(cx, 2))


def test_recovery_sphere(sphere, p):
    rep = ht.recovered_homology(md.ChainData(sphere, p))
    assert rep["betti"] == [1, 0, 1, 0]
    assert rep["direct"] == [1, 0, 1, 0]
    assert rep["match"] is True
    assert rep["q_dims"] == [0, 0, 1, 1]
    assert rep["q_classes"][2] == [
        {"kind": "copy", "cell": "s2", "degree": [3, 0]}
    ]
    assert rep["q_classes"][3][0]["degree"] == [3, 2]
    assert rep["h_q_zero"] is True
    assert rep["single_step"]["ok"] is False
    assert rep["single_step"]["violation"]["to"] == (2, 1)


def test_recovery_one_at_a_time(oneatatime, p):
    rep = ht.recovered_homology(md.ChainData(oneatatime, p))
    assert rep["betti"] == [1, 1, 0]
    assert rep["match"] is True
    assert rep["h_q_zero"] is True
    assert rep["single_step"]["ok"] is True
    assert rep["q_dims"] == [2, 4, 2]


def test_recovery_single_vertex():
    cx = cxm.parse_mfc("n 2\nsimplex a @ (0,0)\n")
    rep = ht.recovered_homology(md.ChainData(cx, 2))
    assert rep["betti"] == [1]
    assert rep["match"] is True
    assert rep["q_dims"] == [0]


def test_quotient_fails_dd_on_a_named_basis_element():
    # T is a complex (c -> b1 + b2, b1 -> a, b2 -> -a), but the canonical
    # copy b2 spans no subcomplex: Q = T / b2 has c -> b1 -> a, and building
    # it must name c before anything ranks it
    labels = [["a"], ["b1", "b2"], ["c"]]
    d = {1: np.array([[1, 2]]), 2: np.array([[1], [1]])}
    t = ht.TComplex(labels, d, {"b2"}, 3, "T")
    assert t.betti() == (0, 0, 0)
    message = "Q boundary fails ∂∘∂=0 on basis element 'c'"
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        t.quotient_by_embedding()


def test_recover_ranks_t_and_q_once_each(oneatatime, monkeypatch):
    # T and Q are each ranked by one complex_ranks call when they are built,
    # which checks ∂∘∂ = 0 first, and betti() ranks nothing again; no rank is
    # taken one boundary at a time
    data = md.ChainData(oneatatime, 5)
    page = ht.e1_page(data)  # hypertor_dims ranks its own complexes
    seen, ranks = [], la.complex_ranks

    def recording(mats, p):
        seen.append(len(mats))
        return ranks(mats, p)

    monkeypatch.setattr(ht, "e1_page", lambda d: page)
    monkeypatch.setattr(la, "complex_ranks", recording)
    monkeypatch.setattr(la, "rank", None)
    t = ht.build_t_complex(data)
    q = t.quotient_by_embedding()
    assert seen == [len(t.labels) + 1, len(q.labels) + 1]
    assert t.betti() == (1, 1, 0) and not any(q.betti())
    assert seen == [len(t.labels) + 1, len(q.labels) + 1]


def test_dd_failure_names_the_degree(fixture_path, monkeypatch):
    # on the stretched circle index points and degrees differ: break D∘D at
    # the first line and ell whose top has a nonzero column r of D_ell and a
    # column c of D_ell+1 entering no earlier than r, by adding e_r to column
    # c in the builder's columns; dense products of the tampered top,
    # restricted to each point, name the same (degree, index)
    cx = cxm.load_mfc(fixture_path.parent / "tests/golden/stretched/circle_fig.mfc")
    data = md.ChainData(cx, 5)
    head, ell, r, c = next(
        (head, ell, r, c)
        for head in gr.grid(data.bound[:-1])
        for cols, steps in [line_top(data, head)]
        for ell in range(1, data.top + data.n + 1)
        for r in sorted(range(len(cols[ell])), key=steps[ell].__getitem__)
        if cols[ell][r]
        for c in range(len(cols[ell + 1]))
        if steps[ell + 1][c] >= steps[ell][r]
    )
    original = ht._total_columns

    def tampered(d, w, faces):
        cols, steps = original(d, w, faces)
        return (moved(cols, ell + 1, r, c, data.p) if w[:-1] == head else cols), steps

    def tops(h):
        cols, steps = line_top(data, h)
        return (moved(cols, ell + 1, r, c, data.p) if h == head else cols), steps

    v, index = first_dd_failure(data, tops)
    assert v[:-1] == head and index == ell
    monkeypatch.setattr(ht, "_total_columns", tampered)
    degree = gr.to_degree(data.coords, v)
    assert degree != v
    with pytest.raises(
        InternalCheckError, match=re.escape("D∘D=0 at %s, index %d" % (degree, ell))
    ):
        ht.hypertor_dims(data)


SECOND_ROUTES = (
    r"hypertor: the cells present at .*, but the alternating sum"
    r"|hypertor_\d+ at .* is \d+, the cells entering there give \d+$"
)


@pytest.mark.parametrize("seed", range(12))
def test_dd_failure_matches_the_dense_scan(seed, monkeypatch):
    # one entry of one total differential of a seeded complex moved by one,
    # in the builder's columns at one line's top, at a row entering no later
    # than its column: hypertor_dims names the (degree, index) that dense
    # products of every (D_ell, D_ell+1) pair of the moved top, restricted to
    # each point, find first in grid then index order
    p = (2, 3, 5)[seed % 3]
    data = md.ChainData(randfix.random_complex(seed), p)
    original = ht._total_columns
    spots = [
        (head, ell, r, c)
        for head in gr.grid(data.bound[:-1])
        for cols, steps in [line_top(data, head)]
        for ell in range(1, len(cols))
        for c in range(len(cols[ell]))
        for r in range(len(cols[ell - 1]))
        if steps[ell - 1][r] <= steps[ell][c]
    ]
    rng = np.random.default_rng(seed)
    head, ell, r, c = spots[rng.integers(len(spots))]

    def tops(h):
        cols, steps = line_top(data, h)
        return (moved(cols, ell, r, c, p) if h == head else cols), steps

    def tampered(d, w, faces):
        cols, steps = original(d, w, faces)
        return (moved(cols, ell, r, c, p) if w[:-1] == head else cols), steps

    clean, want = ht.hypertor_dims(data), None
    found = first_dd_failure(data, tops)
    if found is not None:
        w, e = found
        want = "total differential fails D∘D=0 at %s, index %d" % (
            gr.to_degree(data.coords, w), e
        )
    monkeypatch.setattr(ht, "_total_columns", tampered)
    if want is None:  # the change kept every total complex a complex
        # so the answer stands, or a second route refuses the changed ranks
        try:
            assert ht.hypertor_dims(data) == clean
        except InternalCheckError as e:
            assert re.match(SECOND_ROUTES, str(e)), str(e)
    else:
        with pytest.raises(InternalCheckError, match=re.escape(want)):
            ht.hypertor_dims(data)


def test_hypertor_builds_no_dense_differential(circle, sphere, oneatatime, monkeypatch):
    # hypertor_dims reads its total complex off the cells: no Koszul
    # differential, horizontal block or Koszul dimension is built under it
    cases = [(circle, 5), (sphere, 2), (oneatatime, 3)]
    cases += [(randfix.random_one_at_a_time(seed), 3) for seed in range(4)]
    want = [ht.hypertor_dims(md.ChainData(cx, p)) for cx, p in cases]

    def refused(*args):
        raise AssertionError("a dense differential was built under hypertor_dims")

    for owner, name in ((tor, "koszul_delta"), (ht, "_horizontal"), (tor, "koszul_dim")):
        monkeypatch.setattr(owner, name, refused)
    assert [ht.hypertor_dims(md.ChainData(cx, p)) for cx, p in cases] == want


@pytest.mark.parametrize("seed", range(8))
def test_t_failure_names_the_dense_first_label(circle, sphere, oneatatime, seed):
    # one entry of one boundary of T moved by one: the TComplex names the
    # label that dense products d[ell-1] @ d[ell], ell ascending, find first
    cx = (circle, sphere, oneatatime)[seed % 3]
    t = ht.build_t_complex(md.ChainData(cx, 3))
    rng = np.random.default_rng(seed)
    nonempty = sorted(k for k, m in t.d.items() if m.size)
    ell = nonempty[rng.integers(len(nonempty))]
    d = {k: m.copy() for k, m in t.d.items()}
    r, c = (int(rng.integers(k)) for k in d[ell].shape)
    d[ell][r, c] = (d[ell][r, c] + 1) % 3
    want = None
    for e in range(2, len(t.labels)):
        bad = np.flatnonzero(la.matmul(d[e - 1], d[e], 3).any(axis=0))
        if bad.size:
            label = t.labels[e][bad[0]]
            want = "T boundary fails ∂∘∂=0 on basis element %r" % (label,)
            break
    if want is None:
        ht.TComplex(t.labels, d, t.canonical, 3, "T")
    else:
        with pytest.raises(InternalCheckError, match=re.escape(want)):
            ht.TComplex(t.labels, d, t.canonical, 3, "T")


def test_one_boundary_matrix_per_dimension(sphere, monkeypatch):
    # E1, T and the direct Betti numbers all read the one matrix per chain
    # dimension that the ChainData builds
    calls = []
    original = md._boundary_matrix

    def counting(cx, src_ids, tgt_ids, p):
        calls.append((tuple(src_ids), tuple(tgt_ids)))
        return original(cx, src_ids, tgt_ids, p)

    monkeypatch.setattr(md, "_boundary_matrix", counting)
    data = md.ChainData(sphere, 3)
    ht.e1_page(data)
    ht.build_t_complex(data)
    assert md.total_betti(data) == (1, 0, 1)
    assert ht.recovered_homology(data)["match"]
    ids = [tuple(c.id for c in sphere.cells_of_dim(i)) for i in range(-1, 3)]
    assert sorted(calls) == [(ids[i + 1], ids[i]) for i in range(1, 3)]
