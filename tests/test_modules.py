import re

import numpy as np
import pytest

import randfix
from test_complex_ranks import first_dd_failure, line_top
from torpers import InternalCheckError
from torpers import exactla as la
from torpers import grading as gr
from torpers import hypertor as ht
from torpers import modules as md
from torpers.complexes import Presentation, load_mfc


@pytest.fixture(scope="module")
def circle(fixture_path_mod):
    return load_mfc(fixture_path_mod / "circle_fig.mfc")


@pytest.fixture(scope="module")
def sphere(fixture_path_mod):
    return load_mfc(fixture_path_mod / "sphere.mfc")


@pytest.fixture(scope="module")
def oneatatime(fixture_path_mod):
    return load_mfc(fixture_path_mod / "circle_oneatatime.mfc")


def test_chains_dims_circle(circle):
    c0 = md.ChainData(circle, 2).module(0)
    assert c0.bound == (2, 1)
    assert all(c0.dim(v) == 3 for v in gr.grid((2, 1)))
    c1 = md.ChainData(circle, 2).module(1)
    assert c1.dim((0, 0)) == 0
    assert c1.dim((1, 1)) == 2
    assert c1.dim((2, 1)) == 3
    # degrees past the bound read as the stabilized values
    assert c1.dim((7, 9)) == 3
    assert (c1.step((2, 1), 0) == la.eye(3)).all()


def test_chains_above_top_dimension(sphere):
    c5 = md.ChainData(sphere, 3).module(5)
    assert all(c5.dim(v) == 0 for v in gr.grid(c5.bound))


def test_sphere_c2_at_21(sphere):
    data = md.ChainData(sphere, 2)
    ids = [c.id for c in sphere.cells_of_dim(2)]
    assert [ids[k] for k in data.present(2)[(2, 1)]] == ["tau"]
    assert [ids[k] for k in data.present(2)[(3, 3)]] == ["s1", "s2", "tau"]
    assert data.module(2).dim((3, 3)) == 3


def test_boundary_rank_circle(circle):
    m = md.ChainData(circle, 3).boundary_at(1, (2, 1))
    assert m.shape == (3, 3)
    assert la.rank(m, 3) == 2


def test_boundary_squares_to_zero(sphere):
    data = md.ChainData(sphere, 2)
    for v in gr.grid(data.bound):
        d1, d2 = data.boundary_at(1, v), data.boundary_at(2, v)
        assert not la.matmul(d1, d2, 2).any(), v


def test_sphere_boundary_entries(sphere):
    data = md.ChainData(sphere, 5)
    src = [sphere.cells_of_dim(2)[k].id for k in data.present(2)[(3, 3)]]
    tgt = [sphere.cells_of_dim(1)[k].id for k in data.present(1)[(3, 3)]]
    m = data.boundary_at(2, (3, 3))
    col = {cid: m[:, k] for k, cid in enumerate(src)}
    a, b = tgt.index("a"), tgt.index("b")
    assert col["tau"][a] == 1 and col["tau"][b] == 4
    assert col["s1"][a] == 1 and col["s2"][b] == 1


@pytest.mark.parametrize("seed", range(16))
def test_boundary_slices_equal_per_point_matrices(seed):
    # boundary_at(i, v) and present(i)[v] against the cells present at the
    # degree of v and a matrix built from them, at the chain ends too
    p = (2, 3, 5)[seed % 3]
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        data = md.ChainData(cx, p)
        for i in range(-1, data.top + 3):
            for v in gr.grid(data.bound):
                u = gr.to_degree(data.coords, v)
                ids = [
                    [
                        c.id
                        for c in cx.cells_of_dim(k)
                        if any(gr.leq(e, u) for e in c.degrees)
                    ]
                    for k in (i, i - 1)
                ]
                cells = [c.id for c in cx.cells_of_dim(i)]
                assert [cells[k] for k in data.present(i)[v]] == ids[0], (i, v)
                want = md._boundary_matrix(cx, ids[0], ids[1], p)
                got = data.boundary_at(i, v)
                assert got.shape == want.shape and (got == want).all(), (i, v)


def test_homology_circle_h0(circle):
    H = md.homology_module(md.ChainData(circle, 2), 0)
    expected = {
        (0, 0): 3, (1, 0): 2, (2, 0): 1,
        (0, 1): 2, (1, 1): 1, (2, 1): 1,
    }
    assert {v: H.dim(v) for v in gr.grid(H.bound)} == expected
    # no boundaries yet at the origin, everything is a cycle
    assert H.dim((0, 0)) == 3 and H.reduce_by[(0, 0)].shape[0] == 0
    assert H.reduce_by[(2, 1)].shape[0] == 2


def test_boundary_at_the_ends_builds_no_zero_module(circle):
    data = md.ChainData(circle, 2)
    assert data.top == 1
    # three vertices everywhere, the edges ab and bc at (1, 1), all three
    # edges at (2, 1)
    assert data.boundary_at(-1, (1, 1)).shape == (0, 0)
    assert data.boundary_at(0, (1, 1)).shape == (0, 3)
    assert data.boundary_at(1, (1, 1)).shape == (3, 2)
    assert data.boundary_at(2, (2, 1)).shape == (3, 0)
    assert data.boundary_at(3, (2, 1)).shape == (0, 0)
    for i in (-1, 0, 1, 2, 3):
        assert data.boundary_at(i, (-1, 0)).shape == (0, 0)
        assert data.boundary_at(i, (1, -1)).shape == (0, 0)
    assert data._chains == {}
    # H_q builds no chain module: C_q and its neighbours are presence slices
    md.homology_module(data, 0)
    md.homology_module(data, 1)
    assert data._chains == {}


def basis_module(ambient, bases, reduce_by):
    """The quotient module spanned by a family of class representatives, one
    step at a time: the reference for the stacked quotients of md.

    bases[v] holds RREF rows (no zero rows) in the coordinates of ambient at
    v, representing classes modulo reduce_by[v] (an RREF row basis per degree
    of a subspace closed under the steps); the new module's coordinates at v
    are with respect to those rows.  Each step pushes all basis rows through
    the ambient step in one product, reduces them modulo reduce_by at the
    target and reads their coordinates there.
    """
    p = ambient.p
    dims = {v: bases[v].shape[0] for v in gr.grid(ambient.bound)}
    steps = {}
    for v, j, w in gr.unit_steps(ambient.bound):
        pushed = la.matmul(bases[v], ambient.step(v, j).T, p)
        pushed = la.reduce_mod_rows(pushed, reduce_by[w], p)
        c = la.coords_in(pushed, bases[w], p)
        if c is None:
            degree = gr.to_degree(ambient.coords, v)
            raise InternalCheckError(md._NOT_CLOSED % (degree, j))
        steps[(v, j)] = c.T
    mod = md.PersistenceModule(
        ambient.n, ambient.bound, dims, steps, p, coords=ambient.coords
    )
    mod.bases = dict(bases)
    mod.reduce_by = dict(reduce_by)
    return mod


def _homology_rows(data, q):
    """Per index point, the homology class rows and the boundary rows of H_q."""
    h_rows, b_rows = {}, {}
    for v in gr.grid(data.bound):
        cycles = la.kernel_basis(data.boundary_at(q, v), data.p)
        b_rows[v] = la.row_space(data.boundary_at(q + 1, v).T, data.p)
        h_rows[v] = la.complement_basis(b_rows[v], cycles, data.p)
    return h_rows, b_rows


def _reference_homology(data, q, h_rows=None):
    """H_q by basis_module on the chain module C_q, with h_rows for the
    class rows when given."""
    found, b_rows = _homology_rows(data, q)
    C = md._inclusion_module(data.n, data.coords, data.present(q), data.p)
    return basis_module(C, found if h_rows is None else h_rows, b_rows)


def _same_arrays(got, want):
    return got.keys() == want.keys() and all(
        got[k].shape == want[k].shape and (got[k] == want[k]).all() for k in want
    )


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize(
    "make", [randfix.random_complex, randfix.random_one_at_a_time],
    ids=["complex", "one_at_a_time"],
)
def test_homology_equals_the_reference_on_random_complexes(make, seed):
    # the reference takes every class as the complement of B_q(v) in the
    # kernel basis of ∂_q(v), also where ∂_q(v) is zero (every H_0), where
    # homology_module reads the classes off the pivots of B_q(v) instead
    cx = make(seed)
    for p in (2, 3, 5):
        data = md.ChainData(cx, p)
        for q in range(-1, data.top + 2):
            H, want = md.homology_module(data, q), _reference_homology(data, q)
            assert H.members is None and np.array_equal(H.dims, want.dims), (p, q)
            assert _same_arrays(H.steps, want.steps), (p, q)
            assert _same_arrays(H.bases, want.bases), (p, q)
            assert _same_arrays(H.reduce_by, want.reduce_by), (p, q)


def test_a_dropped_homology_class_row_is_not_closed(circle, monkeypatch):
    # the step (0,0) -> (1,0) maps H_0 onto its two classes at (1,0); with a
    # class row dropped there on the way into _quotients, past the class
    # count, the first step's image leaves the basis
    data = md.ChainData(circle, 5)
    h_rows, _ = _homology_rows(data, 0)
    assert len(h_rows[(1, 0)]) == 2
    h_rows[(1, 0)] = h_rows[(1, 0)][:-1]
    with pytest.raises(InternalCheckError) as reference:
        _reference_homology(data, 0, h_rows)
    quotients = md._quotients

    def dropping(coords, present, bases, rels, p, single):
        rows, counts = bases[(1, 0)]
        bases[(1, 0)] = rows[:, :-1], [counts[0] - 1]
        return quotients(coords, present, bases, rels, p, single)

    monkeypatch.setattr(md, "_quotients", dropping)
    with pytest.raises(InternalCheckError) as raised:
        md.homology_module(data, 0)
    degree = gr.to_degree(data.coords, (0, 0))
    want = "basis family is not closed under the step at %s axis 0" % (degree,)
    assert str(raised.value) == str(reference.value) == want


def test_a_present_list_missing_an_item_present_below_is_not_closed(circle):
    # vertex b (item 1) dropped from C_0 at (1, 1), where it is present one
    # step below on both axes: the first step into (1, 1) in grid then axis
    # order, from (0, 1) along axis 0, is named
    data = md.ChainData(circle, 5)
    present = dict(data.present(0))
    assert present[(1, 1)] == [0, 1, 2] and present[(0, 1)] == [0, 1, 2]
    present[(1, 1)] = [0, 2]
    want = "basis family is not closed under the step at (0, 1) axis 0"
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        md._inclusion_module(data.n, data.coords, present, data.p)


def test_a_doubled_homology_step_fails_to_commute(circle, monkeypatch):
    # the first step, (0,0) -> (1,0) on H_0 over GF(5), doubled: its rows
    # stay in the span, but the square at (0,0) no longer commutes
    data = md.ChainData(circle, 5)
    reduce, calls = la.stacked_reduce_mod_rows, []

    def doubling(v, basis, p):  # one call per step, in grid then axis order
        calls.append(None)
        out = reduce(v, basis, p)
        return out * 2 % p if len(calls) == 1 else out

    monkeypatch.setattr(la, "stacked_reduce_mod_rows", doubling)
    with pytest.raises(InternalCheckError) as raised:
        md.homology_module(data, 0)
    degree = gr.to_degree(data.coords, (0, 0))
    want = "steps fail to commute on the square at %s, axes 0,1" % (degree,)
    assert str(raised.value) == want


def test_homology_circle_h1(circle):
    H = md.homology_module(md.ChainData(circle, 2), 1)
    grid = {v: H.dim(v) for v in gr.grid(H.bound)}
    assert grid[(2, 1)] == 1
    assert all(d == 0 for v, d in grid.items() if v != (2, 1))


def test_homology_steps_are_induced(circle):
    H = md.homology_module(md.ChainData(circle, 3), 0)
    s = H.step((0, 0), 0)
    assert s.shape == (2, 3)
    assert la.rank(s, 3) == 2


def test_homology_sphere_h2(sphere):
    H = md.homology_module(md.ChainData(sphere, 2), 2)
    assert H.dim((3, 3)) == 1
    assert H.dim((2, 1)) == 0


def test_class_coords_roundtrip(circle):
    H = md.homology_module(md.ChainData(circle, 5), 0)
    v = (1, 0)
    for k, row in enumerate(H.bases[v]):
        c = la.quotient_coords(row, H.reduce_by[v], H.bases[v], 5)
        want = np.zeros(H.dim(v), dtype=np.int64)
        want[k] = 1
        assert (c == want).all()


def test_present_cokernel_one_variable():
    pres = Presentation(1, [(0,), (0,), (2,)], [((4,), {2: 1})])
    mod = md.present_cokernel(pres, 2)
    dims = [mod.dim(gr.to_index(mod.coords, (t,))) for t in range(6)]
    assert dims == [2, 2, 3, 3, 2, 2]


def test_present_cokernel_free_when_no_relations():
    ms = {(0, 0): 2, (1, 1): 1}
    mod = md.free_module(ms, 3, coords=gr.dense_coords((2, 2)))
    for v in gr.grid((2, 2)):
        assert mod.dim(v) == gr.staircase_count(ms, v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_free_module_matches_relation_free_cokernel(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(12):
        p = (2, 3, 5)[trial % 3]
        degs = [
            tuple(int(x) for x in rng.integers(0, 3, size=n))
            for _ in range(int(rng.integers(0, 5)))
        ]
        ms = gr.multiset_from_list(degs)
        pres = Presentation(n, sorted(degs), [])
        wide = tuple(int(x) for x in rng.integers(2, 4, size=n))
        F = md.free_module(ms, p, n=n)
        ref = md.present_cokernel(pres, p)
        assert F.bound == ref.bound
        assert np.array_equal(F.dims, ref.dims)
        assert F.steps.keys() == ref.steps.keys()
        assert all((F.steps[k] == ref.steps[k]).all() for k in F.steps)
        assert F.gen_index == ref.gen_index
        for mod in (F, md.free_module(ms, p, n=n, coords=gr.dense_coords(wide))):
            # the staircase: dims count the generators at or below the
            # degree of v, and every step sends each generator to itself
            for v in gr.grid(mod.bound):
                degree = gr.to_degree(mod.coords, v)
                assert mod.dim(v) == gr.staircase_count(ms, degree)
                for j in range(n):
                    if v[j] < mod.bound[j]:
                        w = gr.step(v, j)
                        want = [
                            [int(a == b) for b in mod.gen_index[v]]
                            for a in mod.gen_index[w]
                        ]
                        assert mod.step(v, j).tolist() == want


def test_items_past_an_explicit_bound_stay_absent():
    F = md.free_module({(3,): 1, (1,): 1}, 2, coords=gr.dense_coords((2,)))
    # index points -1..3: zero below the grid, the top layer again past it
    assert F.dims.tolist() == [0, 0, 1, 1, 1]


def test_present_cokernel_generic_rep_dies():
    # two generators at the origin, four relations wiping them out by (3,3)
    pres = Presentation(
        2,
        [(0, 0), (0, 0)],
        [
            ((0, 3), {0: 1}),
            ((1, 2), {1: 1}),
            ((2, 1), {0: -1, 1: 1}),
            ((3, 0), {0: -1, 1: 2}),
        ],
    )
    mod = md.present_cokernel(pres, 5)
    assert mod.bound == (3, 3)
    assert mod.dim((3, 3)) == 0
    assert mod.dim((0, 0)) == 2
    assert mod.dim((2, 1)) == 1


def test_single_step_check(circle, sphere, oneatatime):
    ok, violation = md.single_step_check(md.ChainData(oneatatime, 3))
    assert ok and violation is None
    ok, violation = md.single_step_check(md.ChainData(sphere, 2))
    assert not ok
    assert violation["to"] == (2, 1)
    assert violation["after"] - violation["before"] == 2
    # three vertices at the origin do not violate step counts, entry
    # degrees at the origin are not reached by any step
    ok, _ = md.single_step_check(md.ChainData(circle, 5))
    assert ok


def test_total_betti(circle, sphere):
    assert md.total_betti(md.ChainData(circle, 2)) == (1, 1)
    assert md.total_betti(md.ChainData(sphere, 2)) == (1, 0, 1)
    assert md.total_betti(md.ChainData(sphere, 5)) == (1, 0, 1)


def test_commutativity_is_asserted():
    dims = {v: 1 for v in gr.grid((1, 1))}
    steps = {
        ((0, 0), 0): np.array([[1]]),
        ((0, 0), 1): np.array([[1]]),
        ((1, 0), 1): np.array([[1]]),
        ((0, 1), 0): np.array([[2]]),
    }
    with pytest.raises(InternalCheckError, match="commute"):
        md.PersistenceModule(2, (1, 1), dims, steps, 3)


def test_a_boundary_that_is_not_natural_fails_dd_zero(circle, monkeypatch):
    # drop the boundary of the edge ab (column 0 of C_1) on the line at (1,)
    # only, where ab enters at (1, 1) and is present one step below too: in
    # the builder's columns at that line's top, ab at S = () loses its face
    # entries, the unit-step square of the boundary no longer commutes, and
    # the term (-1)^i (∂δ - δ∂) of D∘D catches it where ab enters; dense
    # products of the dropped top, restricted to each point, agree
    data = md.ChainData(circle, 5)
    assert data.present(1)[(0, 1)] == [0] and data.present(1)[(1, 1)][0] == 0
    assert data.entry(1, (1,))[0] == 1
    natural = ht._total_columns

    def dropped(d, v, faces):
        cols, steps = natural(d, v, faces)
        if v[:-1] == (1,):
            # the 1-cells at S = () are the last piece of index 1, ab first
            j = len(cols[1]) - len(d.present(1)[v])
            assert cols[1][j] == faces[1][0]
            cols[1][j] = {}
        return cols, steps

    monkeypatch.setattr(ht, "_total_columns", dropped)
    assert first_dd_failure(data, lambda head: line_top(data, head)) == ((1, 1), 1)
    with pytest.raises(InternalCheckError, match=r"D∘D=0 at \(1, 1\), index 1"):
        ht.hypertor_dims(data)


def phi(M, u, v):
    """Composite map M_u -> M_v for u <= v (staircase along axis order)."""
    if any(x < 0 for x in u):
        return la.zeros(M.dim(v), 0)
    if not gr.leq(u, v):
        raise ValueError("phi needs u <= v, got %s, %s" % (u, v))
    mat = la.eye(M.dim(u))
    cur = u
    for j in range(M.n):
        while cur[j] < v[j]:
            mat = la.matmul(M.step(cur, j), mat, M.p)
            cur = gr.step(cur, j)
    return mat


def test_phi_staircase(circle):
    c0 = md.ChainData(circle, 2).module(0)
    m = phi(c0, (0, 0), (2, 1))
    assert (m == la.eye(3)).all()
    H = md.homology_module(md.ChainData(circle, 2), 0)
    assert phi(H, (0, 0), (2, 1)).shape == (1, 3)
    assert la.rank(phi(H, (0, 0), (2, 1)), 2) == 1


STRETCHED_CIRCLE = "tests/golden/stretched/circle_fig.mfc"


def test_a_missing_or_misshapen_step_names_its_degree(fixture_path):
    # on the stretched circle index points and degrees differ; the step
    # check is an internal check that names the degree and the axis
    C = md.ChainData(load_mfc(fixture_path.parent / STRETCHED_CIRCLE), 5).module(1)
    v, j, w = list(gr.unit_steps(C.bound))[-1]
    degree = gr.to_degree(C.coords, v)
    assert degree != v
    dims = {u: C.dim(u) for u in gr.grid(C.bound)}
    missing = {key: s for key, s in C.steps.items() if key != (v, j)}
    want = "step at %s axis %d is missing" % (degree, j)
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        md.PersistenceModule(C.n, C.bound, dims, missing, 5, coords=C.coords)
    misshapen = dict(C.steps)
    misshapen[(v, j)] = la.zeros(C.dim(w) + 1, C.dim(v))
    want = "step at %s axis %d has shape %s, expected %s" % (
        degree, j, (C.dim(w) + 1, C.dim(v)), (C.dim(w), C.dim(v))
    )
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        md.PersistenceModule(C.n, C.bound, dims, misshapen, 5, coords=C.coords)
