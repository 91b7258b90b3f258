import json
import re

import numpy as np
import pytest

import randfix
from test_complex_ranks import suite_data
from test_modules import basis_module, phi
from test_orbits import XI0_FOUR_LINES, XI0_MIXED, XI1_FOUR_LINES, XI1_MIXED
from torpers import InternalCheckError, cli
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md
from torpers import orbits as ob
from torpers import tor
from torpers.complexes import Presentation, load_mfc


@pytest.fixture(scope="module")
def circle(fixture_path_mod):
    return load_mfc(fixture_path_mod / "circle_fig.mfc")


@pytest.fixture(scope="module", params=[2, 3, 5])
def p(request):
    return request.param


def circle_h0(circle, p):
    H = md.homology_module(md.ChainData(circle, p), 0)
    return H


def test_koszul_tor_circle_h0(circle, p):
    H = circle_h0(circle, p)
    assert tor.koszul_tor(H, 0).multiset() == {(0, 0): 3}
    assert tor.koszul_tor(H, 1).multiset() == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    assert tor.koszul_tor(H, 2).multiset() == {(2, 1): 1}


def test_koszul_tor_free_module(p):
    F = md.free_module({(2, 1): 1}, p, coords=gr.dense_coords((3, 3)))
    assert tor.koszul_tor(F, 0).multiset() == {(2, 1): 1}
    assert tor.koszul_tor(F, 1).multiset() == {}
    assert tor.koszul_tor(F, 2).multiset() == {}


def test_koszul_tor_zero_module():
    Z = md.free_module({}, 2, n=2, coords=gr.dense_coords((1, 1)))
    for j in range(3):
        assert tor.koszul_tor(Z, j).multiset() == {}


def test_representatives_match_multiplicity(circle):
    H = circle_h0(circle, 3)
    kt = tor.koszul_tor(H, 1)
    for v, mult in kt.multiset().items():
        assert kt.reps[v].shape[0] == mult


def test_resolution_circle_h0(circle, p):
    H = circle_h0(circle, p)
    res = tor.minimal_resolution(H)
    assert res.length == 2
    assert res.gen_degrees[0] == [(0, 0), (0, 0), (0, 0)]
    assert sorted(res.gen_degrees[1]) == [(0, 1), (1, 0), (2, 0)]
    assert res.gen_degrees[2] == [(2, 1)]
    # ranks of the evaluated differentials at the top corner
    assert la.rank(res.at(1, (2, 1)), p) == 2
    assert la.rank(res.at(2, (2, 1)), p) == 1


def test_resolution_of_free_module_has_length_zero(p):
    F = md.free_module({(1, 0): 2, (0, 2): 1}, p)
    res = tor.minimal_resolution(F)
    assert res.length == 0
    degrees = [gr.to_degree(F.coords, u) for u in res.gen_degrees[0]]
    assert degrees == [(0, 2), (1, 0), (1, 0)]


def test_resolution_generic_rep_syzygies(p):
    # two generators at the origin with four generic relations; the first
    # syzygy lives at (2,3), the second at (3,2)
    alpha = 2 % p
    if alpha in (0, 1):
        pytest.skip("needs a scalar distinct from 0 and 1")
    pres = Presentation(
        2,
        [(0, 0), (0, 0)],
        [
            ((0, 3), {0: 1}),
            ((1, 2), {1: 1}),
            ((2, 1), {0: -1, 1: 1}),
            ((3, 0), {0: -1, 1: alpha}),
        ],
    )
    mod = md.present_cokernel(pres, p)
    table = tor.xi(mod)
    assert table.tables[0] == {(0, 0): 2}
    assert table.tables[1] == {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1}
    assert table.tables[2] == {(2, 3): 1, (3, 2): 1}


def test_xi_cross_checks_and_circle_values(circle, p):
    H = md.homology_module(md.ChainData(circle, p), 0)
    table = tor.xi(H)
    assert table.tables[0] == {(0, 0): 3}
    assert table.tables[1] == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    assert table.tables[2] == {(2, 1): 1}
    H1 = md.homology_module(md.ChainData(circle, p), 1)
    t1 = tor.xi(H1)
    assert t1.tables[0] == {(2, 1): 1}
    assert t1.tables[1] == {} and t1.tables[2] == {}


def test_xi_one_variable():
    pres = Presentation(1, [(0,), (0,), (2,)], [((4,), {2: 1})])
    mod = md.present_cokernel(pres, 3)
    table = tor.xi(mod)
    assert table.tables[0] == {(0,): 2, (2,): 1}
    assert table.tables[1] == {(4,): 1}


def test_euler_characteristic_per_degree(circle, p):
    H = circle_h0(circle, p)
    table = tor.xi(H)
    for v in gr.grid(H.bound):
        chi = sum(
            (-1) ** j * gr.staircase_count(table.tables[j], v)
            for j in range(H.n + 1)
        )
        assert chi == H.dim(v)


def test_chains_never_die(circle, fixture_path_mod, p):
    sphere = load_mfc(fixture_path_mod / "sphere.mfc")
    for cx in (circle, sphere):
        for i in range(cx.max_dim() + 1):
            C = md.ChainData(cx, p).module(i)
            assert tor.koszul_tor(C, cx.n).multiset() == {}


def test_widening_stability(circle, p):
    H = circle_h0(circle, p)
    base = tor.xi(H)
    wide = tor.xi(H, widen=1)
    assert base.tables == wide.tables


def test_restricted_image_is_grassmann_point(p):
    alpha = 2 % p
    if alpha in (0, 1):
        pytest.skip("needs a scalar distinct from 0 and 1")
    pres = Presentation(
        2,
        [(0, 0), (0, 0)],
        [
            ((0, 3), {0: 1}),
            ((1, 2), {1: 1}),
            ((2, 1), {0: -1, 1: 1}),
            ((3, 0), {0: -1, 1: alpha}),
        ],
    )
    mod = md.present_cokernel(pres, p)
    res = tor.minimal_resolution(mod)
    pt = res.restricted_image(1, (2, 1))
    # one relation enters at (2,1); its image is a line in F_0 at (2,1) = k^2
    assert pt.shape == (1, 2)
    assert pt[0, 0] == 1  # RREF-normalized


def test_xi_table_json_shape(circle):
    H = circle_h0(circle, 2)
    assert tor.xi(H).tables == {
        0: {(0, 0): 3},
        1: {(0, 1): 1, (1, 0): 1, (2, 0): 1},
        2: {(2, 1): 1},
    }


def test_minimality_guard_fires_on_bad_matrix(circle):
    H = circle_h0(circle, 2)
    res = tor.minimal_resolution(H)
    res.d[1] = res.d[1].copy()
    # plant an entry between two generators of equal degree
    res.gen_degrees[1][0] = res.gen_degrees[2][0]
    with pytest.raises(InternalCheckError):
        res.check()


def test_resolution_free_modules_live_on_the_module_grid(fixture_path):
    # H_0 of the stretched circle sits on the critical grid x -> (0,3,4),
    # y -> (0,1,2); each F_j must too, or its own Tor reads index points
    cx = load_mfc(fixture_path.parent / "tests/golden/stretched/circle_fig.mfc")
    H = md.homology_module(md.ChainData(cx, 5), 0)
    res = tor.minimal_resolution(H)
    assert res.xi(1) == {(0, 2): 1, (3, 1): 1, (4, 1): 1}
    for j in range(res.length + 1):
        F = md.free_module(res.xi(j), 5, n=H.n, coords=H.coords)
        assert F.gen_index == res.present[j], j
        assert tor.xi(F).tables[0] == res.xi(j), j


# -- one generator routine for M and for every kernel -------------------------


def _module_generators(M, sub=None):
    """Minimal generators of M, or of a submodule of a free module on M's grid
    (sub[v] an RREF row basis over all its generators), as (index point, row
    vector) pairs in grid order: tor._generators on one module."""
    if sub is not None:
        sub = {v: (rows[None], [len(rows)]) for v, rows in sub.items()}
    return [(v, row) for v, rows, _ in tor._generators(M, 1, sub) for row in rows[0]]


def _assert_generators_are_the_tor0_complement(M):
    gens = _module_generators(M)
    for v in gr.grid(M.bound):
        images = la.row_space(tor.koszul_delta(M, v, 1).T, M.p)
        want = la.complement_basis(images, la.eye(M.dim(v)), M.p)
        got = np.concatenate(
            [la.zeros(0, M.dim(v))] + [row[None] for u, row in gens if u == v]
        )
        assert got.shape == want.shape and (got == want).all(), v


@pytest.mark.parametrize("seed", range(12))
def test_generators_match_tor0_projection_on_random_homology(seed):
    p = (2, 3, 5)[seed % 3]
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        data = md.ChainData(cx, p)
        for q in range(cx.max_dim() + 1):
            _assert_generators_are_the_tor0_complement(md.homology_module(data, q))


def test_generators_match_tor0_projection_on_census_cokernels():
    for fam in ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3):
        _assert_generators_are_the_tor0_complement(ob.family_to_module(fam))


@pytest.mark.parametrize("top_rows", [[[0, 1]], []], ids=["line", "zero"])
def test_generators_refuse_a_sub_that_is_not_closed(top_rows):
    # generators at degrees 3 and 5 (index points 1 and 2), rows over both;
    # the sub keeps the first at index 1 but drops it at index 2, where its
    # step lands
    F = md.free_module({(3,): 1, (5,): 1}, 3)
    sub = {
        (0,): la.zeros(0, 2),
        (1,): np.array([[1, 0]], dtype=np.int64),
        (2,): np.array(top_rows, dtype=np.int64).reshape(-1, 2),
    }
    with pytest.raises(InternalCheckError, match=r"degree \(5,\)"):
        _module_generators(F, sub)


def test_resolution_builds_no_module(circle, monkeypatch):
    H = circle_h0(circle, 3)
    built = []
    init = md.PersistenceModule.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(md.PersistenceModule, "__init__", counting_init)
    res = tor.minimal_resolution(H)
    assert res.length == 2
    assert built == []
    assert not hasattr(res, "free") and not hasattr(res, "maps")


def test_augmentation_naturality_is_checked():
    # every dim 1 on the 2 x 2 grid; the step (1,0) -> (1,1) multiplies by 2
    # and every other step is the identity, so the square fails to commute
    steps = {(v, a): la.eye(1) for v, a, _ in gr.unit_steps((1, 1))}
    steps[(1, 0), 1] = np.array([[2]], dtype=np.int64)
    dims = {v: 1 for v in gr.grid((1, 1))}
    M = md.PersistenceModule(2, (1, 1), dims, steps, 5, check=False)
    with pytest.raises(
        InternalCheckError, match=re.escape("not natural at (1, 0) along axis 1")
    ):
        tor.minimal_resolution(M)


# -- the resolution against the level-by-level builder it replaced ------------


def _reference_resolution(M, bound=None):
    """(gen_degrees, d, augmentation, level_maps) by the earlier builder.

    Each level maps a free module onto the previous syzygy module (M for the
    first) through staircase maps phi, instead of slicing the global matrix
    of the level below.  level_maps[j][v] is that map at grid degree v: the
    augmentation F_0 -> M for j = 0, and for j >= 1 the map onto the syzygy
    module read in the basis of F_{j-1} there (through the syzygy basis).
    """
    bound = M.bound if bound is None else gr.as_degree(bound)
    if bound != M.bound:
        M = md.rebound(M, bound)
    p = M.p
    gen_degrees, mats = [], {}
    gens = _module_generators(M)
    gen_degrees.append([u for u, _ in gens])
    augmentation = [vec for _, vec in gens]
    current, bases = M, None
    cur_gens = gens
    level_maps = []
    j = 0
    while True:
        ms = gr.multiset_from_list(gr.to_degree(M.coords, u) for u, _ in cur_gens)
        F = md.free_module(ms, p, n=M.n, coords=M.coords)
        eps_mats = {}
        for v in gr.grid(bound):
            cols = [
                la.matmul(phi(current, u, v), vec, p)
                for u, vec in cur_gens
                if gr.leq(u, v)
            ]
            eps_mats[v] = (
                np.array(cols, dtype=np.int64).T
                if cols
                else la.zeros(current.dim(v), 0)
            )
        level_maps.append(
            {
                v: m if bases is None else la.matmul(bases[v].T, m, p)
                for v, m in eps_mats.items()
            }
        )
        kernel_rows = {v: la.kernel_basis(eps_mats[v], p) for v in gr.grid(bound)}
        if all(rows.shape[0] == 0 for rows in kernel_rows.values()):
            break
        K = basis_module(
            F, kernel_rows, {v: la.zeros(0, F.dim(v)) for v in gr.grid(bound)}
        )
        next_gens = _module_generators(K)
        d = la.zeros(len(cur_gens), len(next_gens))
        for l, (u, row) in enumerate(next_gens):
            ambient = la.matmul(row, K.bases[u], p)
            for c, k in enumerate(F.gen_index[u]):
                d[k, l] = ambient[c]
        mats[j + 1] = d
        gen_degrees.append([u for u, _ in next_gens])
        current, bases = K, K.bases
        cur_gens = next_gens
        j += 1
    return gen_degrees, mats, augmentation, level_maps


def _assert_matches_reference(M):
    res = tor.minimal_resolution(M)
    gen_degrees, d, augmentation, level_maps = _reference_resolution(M)
    assert res.gen_degrees == gen_degrees
    assert sorted(res.d) == sorted(d)
    for j, mat in d.items():
        assert res.d[j].shape == mat.shape and (res.d[j] == mat).all(), j
    assert len(res.augmentation) == len(augmentation)
    for got, want in zip(res.augmentation, augmentation):
        assert got.shape == want.shape and (got == want).all()
    # every level map at every degree, read by presence from d[j] (or the
    # augmentation pushed one step at a time), equals the staircase one
    assert len(level_maps) == res.length + 1
    for j, maps in enumerate(level_maps):
        for v in gr.grid(res.module.bound):
            got, want = res.at(j, v), maps[v]
            assert got.shape == want.shape and (got == want).all(), (j, v)


@pytest.mark.parametrize("seed", range(24))
def test_resolution_matches_reference_on_random_homology(seed):
    p = (2, 3, 5)[seed % 3]
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        for q in range(cx.max_dim() + 1):
            H = md.homology_module(md.ChainData(cx, p), q)
            _assert_matches_reference(H)
            _assert_matches_reference(md.rebound(H, tuple(b + 1 for b in H.bound)))


@pytest.mark.parametrize(
    "xi0, xi1, q, every",
    [(XI0_MIXED, XI1_MIXED, 3, 1), (XI0_FOUR_LINES, XI1_FOUR_LINES, 5, 25)],
    ids=["mixed-gf3", "four-lines-gf5-every-25th"],
)
def test_resolution_matches_reference_on_census_cokernels(xi0, xi1, q, every):
    families = ob.enumerate_families(xi0, xi1, q)
    for fam in families[::every]:
        _assert_matches_reference(ob.family_to_module(fam))


# -- check() reads the kernels found while resolving --------------------------


def _check_without_recomputing(res, monkeypatch):
    """res.check(), failing if it takes a kernel or a rank of its own."""

    def refuse(*args, **kwargs):
        raise AssertionError("check() recomputed a kernel or a rank")

    with monkeypatch.context() as m:
        m.setattr(la, "kernel_basis", refuse)
        m.setattr(la, "rank", refuse)
        return res.check()


def test_check_reads_the_stored_kernels(circle, p, monkeypatch):
    res = tor.minimal_resolution(circle_h0(circle, p))
    assert len(res.kernels) == res.length + 1
    for j, kernels in enumerate(res.kernels):
        for v, rows in kernels.items():
            # over all generators of F_j, zero off those present at v
            local = la.kernel_basis(res.at(j, v), p)
            want = la.zeros(local.shape[0], len(res.gen_degrees[j]))
            want[:, res.present[j][v]] = local
            assert rows.shape == want.shape and (rows == want).all(), (j, v)
    assert _check_without_recomputing(res, monkeypatch) is True


@pytest.mark.parametrize("j", [1, 2])
def test_check_catches_a_corrupted_map(circle, j, monkeypatch):
    res = tor.minimal_resolution(circle_h0(circle, 3))
    # zero the column of the first generator of F_j: the generators born at
    # its index point complement the pushed image, so the image shrinks there
    res.d[j][:, 0] = 0
    with pytest.raises(InternalCheckError, match="not exact at F_%d" % (j - 1)):
        _check_without_recomputing(res, monkeypatch)


def test_exactness_failure_names_the_degree(fixture_path, monkeypatch):
    # on the stretched circle a generator of F_1 sits at an index point
    # that differs from its degree; the message carries the degree
    cx = load_mfc(fixture_path.parent / "tests/golden/stretched/circle_fig.mfc")
    res = tor.minimal_resolution(md.homology_module(md.ChainData(cx, 5), 0))
    k, u = next(
        (k, u)
        for k, u in enumerate(res.gen_degrees[1])
        if gr.to_degree(res.module.coords, u) != u
    )
    res.d[1][:, k] = 0
    degree = gr.to_degree(res.module.coords, u)
    with pytest.raises(
        InternalCheckError, match=re.escape("not exact at F_0, degree %s" % (degree,))
    ):
        _check_without_recomputing(res, monkeypatch)


def test_check_catches_a_dropped_kernel_row(circle, monkeypatch):
    res = tor.minimal_resolution(circle_h0(circle, 3))
    v = next(v for v, rows in res.kernels[0].items() if rows.shape[0])
    res.kernels[0][v] = res.kernels[0][v][:-1]
    with pytest.raises(InternalCheckError, match="not surjective"):
        _check_without_recomputing(res, monkeypatch)


def test_check_catches_a_kernel_left_at_the_last_level(circle, monkeypatch):
    res = tor.minimal_resolution(circle_h0(circle, 3))
    v = res.module.bound
    last = res.kernels[res.length]
    last[v] = la.eye(len(res.gen_degrees[res.length]))[:1]
    assert last[v].shape[0] == 1
    with pytest.raises(InternalCheckError, match="too short"):
        _check_without_recomputing(res, monkeypatch)


def test_resolution_takes_each_kernel_once(monkeypatch):
    families = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    M = ob.family_to_module(families[-1])
    seen = []
    kernel_basis = la.kernel_basis

    def recording(m, p):
        seen.append(m)
        return kernel_basis(m, p)

    monkeypatch.setattr(la, "kernel_basis", recording)
    res = tor.minimal_resolution(M)
    assert res.length == 2
    want = [res.at(j, v) for j in range(res.length + 1) for v in gr.grid(M.bound)]
    assert len(seen) == len(want)
    assert all(a.shape == b.shape and (a == b).all() for a, b in zip(seen, want))


def test_koszul_square_failure_names_the_degree(fixture_path, monkeypatch):
    # C_0 of the stretched circle: break Δ_1∘Δ_2 at the first index point
    # where Δ_1 has a nonzero column r, by adding e_r to a column of Δ_2
    cx = load_mfc(fixture_path.parent / "tests/golden/stretched/circle_fig.mfc")
    M = md.ChainData(cx, 5).module(0)
    original = tor.koszul_delta
    v = next(
        v
        for v in gr.grid(M.bound)
        if original(M, v, 1).any() and original(M, v, 2).size
    )
    r = int(np.nonzero(original(M, v, 1).any(axis=0))[0][0])

    def tampered(module, w, j):
        m = original(module, w, j)
        if module is M and w == v and j == 2:
            m[r, 0] = (m[r, 0] + 1) % M.p
        return m

    monkeypatch.setattr(tor, "koszul_delta", tampered)
    degree = gr.to_degree(M.coords, v)
    assert degree != v
    with pytest.raises(
        InternalCheckError, match=re.escape("square to zero at %s" % (degree,))
    ):
        tor.koszul_tor(M, range(M.n + 1))


def stacked(M, depth):
    """A stack of depth copies of the single module M."""
    steps = {key: np.stack([s] * depth) for key, s in M.steps.items()}
    dims = {v: M.dim(v) for v in gr.grid(M.bound)}
    return md.PersistenceModule(
        M.n, M.bound, dims, steps, M.p, coords=M.coords, members=list(range(depth))
    )


def _stretched_h0_and_its_tor_2_point(fixture_path):
    # H_0 of the stretched circle has Tor_2 at one index point v, and no other
    # point of the scan box has the same Delta_2
    cx = load_mfc(fixture_path.parent / "tests/golden/stretched/circle_fig.mfc")
    H = md.homology_module(md.ChainData(cx, 5), 0)
    (v,) = tor.koszul_tor(H, 2).dims
    target = tor.koszul_delta(H, v, 2)

    def is_target(m):
        return m.shape == target.shape and (m == target).all()

    wide = tuple(b + 1 for b in H.bound)
    assert [w for w in gr.grid(wide) if is_target(tor.koszul_delta(H, w, 2))] == [v]
    return H, v, target, is_target


def test_a_stacked_rank_that_disagrees_with_the_cycles_names_the_degree(
    fixture_path, monkeypatch
):
    # ranking Delta_2(v) one lower, in both members of a stack of two copies
    # of H_0, makes the ranks claim one more Tor_1 and Tor_2 at v than the
    # cycles give; a single module is not ranked by stacked_rank
    H, v, _, is_target = _stretched_h0_and_its_tor_2_point(fixture_path)
    stacked_rank = la.stacked_rank

    def tampered(stack, p):
        return stacked_rank(stack, p) - [is_target(m) for m in stack]

    monkeypatch.setattr(la, "stacked_rank", tampered)
    degree = gr.to_degree(H.coords, v)
    assert degree != v
    tor.koszul_tor(H, range(H.n + 1))  # no stacked_rank call
    want = "Tor_1 at %s: the Koszul ranks give dimension 1, the cycles 0" % (degree,)
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        tor.koszul_tor(stacked(H, 2), range(H.n + 1))


def test_a_complex_rank_that_disagrees_with_the_cycles_names_the_degree(
    fixture_path, monkeypatch
):
    # the same on the single module, whose Koszul complex at each point is
    # ranked by one complex_ranks call: Delta_2(v) ranked one lower
    H, v, target, _ = _stretched_h0_and_its_tor_2_point(fixture_path)
    complex_ranks, calls = la.complex_ranks, []

    def tampered(cols, p):
        out = complex_ranks(cols, p)
        calls.append(cols)
        if cols[1] == la.columns(target, p):
            out[1] -= 1
        return out

    monkeypatch.setattr(la, "complex_ranks", tampered)
    monkeypatch.setattr(la, "stacked_rank", None)
    degree = gr.to_degree(H.coords, v)
    want = "Tor_1 at %s: the Koszul ranks give dimension 1, the cycles 0" % (degree,)
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        tor.koszul_tor(H, range(H.n + 1))
    assert len(calls) > 1 and all(len(cols) == H.n for cols in calls)


def _pattern_modules(data):
    """The up-set module of each distinct entry pattern of the cells."""
    patterns = set()
    for cell in data.cx.cells.values():
        own = gr.critical_coords(cell.degrees, data.n)
        patterns.add(tuple(gr.to_index(own, u) for u in cell.degrees))
    for pattern in sorted(patterns):
        coords = gr.dense_coords(gr.join(pattern))
        yield md._inclusion_module(data.n, coords, md._present(coords, [pattern]), data.p)


def test_single_module_koszul_ranks_equal_stacked_rank(monkeypatch):
    # a single module's Koszul complex at each point is ranked by one
    # complex_ranks call: every rank equals stacked_rank's on the same
    # Delta_i(v), every point with a Delta_i(v) is ranked, and the Tor tables
    # and cycles equal those of a stack of one, which stacked_rank ranks
    complex_ranks, seen = la.complex_ranks, []

    def recording(cols, p):
        out = complex_ranks(cols, p)
        seen.append((cols, out))
        return out

    for name, data in suite_data():
        modules = [md.homology_module(data, q) for q in range(data.top + 1)]
        for M in modules + list(_pattern_modules(data)):
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(la, "complex_ranks", recording)
                got = tor.koszul_tor(M, range(M.n + 1))
            for cols, out in seen:
                for c, rank in zip(cols, out):
                    m = la.zeros(1 + max((r for col in c for r in col), default=-1), len(c))
                    for j, col in enumerate(c):
                        m[list(col), j] = list(col.values())
                    assert rank == la.stacked_rank(m[None], M.p)[0], name
            totals = [tor._layout(M, i).totals for i in range(M.n + 1)]
            has = sum((totals[i] > 0) & (totals[i - 1] > 0) for i in range(1, M.n + 1))
            assert len(seen) == np.count_nonzero(has), name
            want = tor.koszul_tor(stacked(M, 1), range(M.n + 1))[0]
            for j, kt in got.items():
                assert kt.dims == want[j].dims, (name, j)
                assert kt.reps.keys() == want[j].reps.keys()
                assert all((kt.reps[v] == want[j].reps[v]).all() for v in kt.reps)


def test_koszul_boundaries_outside_the_cycles_name_the_degree(monkeypatch):
    # one generator at the origin killed at (1, 1): Tor_1 lives at (1, 1) only,
    # where both unit vectors of K_1 are cycles and the Koszul boundary is
    # their sum; a kernel one row short leaves that boundary outside
    M = md.present_cokernel(Presentation(2, [(0, 0)], [((1, 1), {0: 1})]), 3)
    kernel_basis = la.kernel_basis
    monkeypatch.setattr(la, "kernel_basis", lambda a, p: kernel_basis(a, p)[:-1])
    want = "Tor_1 at (1, 1): the Koszul boundaries are not contained in the cycles"
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        tor.koszul_tor(M, 1)


def test_koszul_tor_takes_cycles_only_where_tor_is_nonzero(monkeypatch):
    families = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    M = ob.family_to_module(families[-1])
    support = {
        (j, v) for j, kt in tor.koszul_tor(M, range(M.n + 1)).items() for v in kt.dims
    }
    assert {j for j, _ in support} == {0, 1, 2}
    calls = {"kernel_basis": [], "complement_basis": []}

    def recording(fn, seen):
        return lambda *args: seen.append(args) or fn(*args)

    for name, seen in calls.items():
        monkeypatch.setattr(la, name, recording(getattr(la, name), seen))
    kts = tor.koszul_tor(M, range(M.n + 1))
    assert len(calls["kernel_basis"]) == len(support)
    assert len(calls["complement_basis"]) == len(support)
    # each kernel is taken in K_j(v) for one (j, v) of the support, in order
    want = [tor.koszul_dim(M, v, j) for j in sorted(kts) for v in kts[j].dims]
    assert [a[0].shape[1] for a in calls["kernel_basis"]] == want


def test_the_hilbert_identity_catches_a_corrupted_xi_entry(
    fixture_path, monkeypatch, capsys
):
    # add one xi_1 generator at the top index point to both routes, so that
    # they still agree and only the third identity can see it
    koszul_tor, minimal_resolution = tor.koszul_tor, tor.minimal_resolution

    def corrupt_koszul(M, js):
        out = koszul_tor(M, js)
        out[1].dims[M.bound] = out[1].dims.get(M.bound, 0) + 1
        return out

    def corrupt_resolution(M):
        res = minimal_resolution(M)
        res.gen_degrees[1].append(M.bound)
        return res

    path = fixture_path.parent / "tests/golden/stretched/circle_fig.mfc"
    H = md.homology_module(md.ChainData(load_mfc(path), 5), 0)
    top = gr.to_degree(H.coords, H.bound)
    argv = ["xi", "--input", str(path), "--q", "0", "--field", "5"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(tor, "koszul_tor", corrupt_koszul)
    monkeypatch.setattr(tor, "minimal_resolution", corrupt_resolution)
    assert cli.main(argv) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith("xi: dim M is 1 at %s, but the alternating sum" % (top,))


# -- the degree masks of check() against the per-entry loop they replaced -----


def _first_bad_entry(res):
    """The message of the first non-homogeneous or non-minimal entry of any
    d_j, by the loop over nonzero entries in row-major order."""
    for j in range(1, len(res.gen_degrees)):
        for k, l in zip(*np.nonzero(res.d[j] % res.p)):
            uk, ul = res.gen_degrees[j - 1][k], res.gen_degrees[j][l]
            if not gr.leq(uk, ul):
                return "resolution d_%d not homogeneous at (%d,%d)" % (j, k, l)
            if uk == ul:
                return "resolution d_%d not minimal at (%d,%d)" % (j, k, l)
    return None


@pytest.mark.parametrize("seed", range(8))
def test_the_degree_masks_name_the_first_bad_entry(circle, seed):
    rng = np.random.default_rng(seed)
    res = tor.minimal_resolution(circle_h0(circle, 3))
    # move some generators to other index points: entries turn bad
    for degrees in res.gen_degrees:
        for k in rng.choice(len(degrees), size=min(2, len(degrees)), replace=False):
            degrees[k] = tuple(int(x) for x in rng.integers(0, 3, size=2))
    want = _first_bad_entry(res)
    if want is None:
        assert res.check() is True
    else:
        with pytest.raises(InternalCheckError, match=re.escape(want)):
            res.check()
