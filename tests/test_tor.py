import numpy as np
import pytest

import randfix
from test_orbits import XI0_FOUR_LINES, XI0_MIXED, XI1_FOUR_LINES, XI1_MIXED
from torpers import InternalCheckError
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
    H, _, _ = md.homology_module(circle, 0, p)
    return H


def test_koszul_tor_circle_h0(circle, p):
    H = circle_h0(circle, p)
    assert tor.koszul_tor(H, 0).multiset() == {(0, 0): 3}
    assert tor.koszul_tor(H, 1).multiset() == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    assert tor.koszul_tor(H, 2).multiset() == {(2, 1): 1}


def test_koszul_tor_free_module(p):
    F = md.free_module({(2, 1): 1}, p, bound=(3, 3))
    assert tor.koszul_tor(F, 0).multiset() == {(2, 1): 1}
    assert tor.koszul_tor(F, 1).multiset() == {}
    assert tor.koszul_tor(F, 2).multiset() == {}


def test_koszul_tor_zero_module():
    Z = md.free_module({}, 2, bound=(1, 1), n=2)
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
    assert la.rank(res.evaluate(1, (2, 1)), p) == 2
    assert la.rank(res.evaluate(2, (2, 1)), p) == 1


def test_resolution_of_free_module_has_length_zero(p):
    F = md.free_module({(1, 0): 2, (0, 2): 1}, p)
    res = tor.minimal_resolution(F)
    assert res.length == 0
    assert res.gen_degrees[0] == [(0, 2), (1, 0), (1, 0)]


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
    H, _, _ = md.homology_module(circle, 0, p)
    table = tor.xi(H)
    assert table.tables[0] == {(0, 0): 3}
    assert table.tables[1] == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    assert table.tables[2] == {(2, 1): 1}
    H1, _, _ = md.homology_module(circle, 1, p)
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
            C = md.chains_module(cx, i, p)
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
    data = tor.xi(H).to_json()
    assert data == {
        "xi": [
            [0, [[[0, 0], 3]]],
            [1, [[[0, 1], 1], [[1, 0], 1], [[2, 0], 1]]],
            [2, [[[2, 1], 1]]],
        ]
    }


def test_minimality_guard_fires_on_bad_matrix(circle):
    H = circle_h0(circle, 2)
    res = tor.minimal_resolution(H)
    res.d[1] = res.d[1].copy()
    # plant an entry between two generators of equal degree
    res.gen_degrees[1][0] = res.gen_degrees[2][0]
    with pytest.raises(InternalCheckError):
        res.check()


# -- the resolution against the level-by-level builder it replaced ------------


def _reference_resolution(M, bound=None):
    """(gen_degrees, d, augmentation) by the earlier builder.

    Each level maps a free module onto the previous syzygy module (M for the
    first) through staircase maps phi, instead of slicing the global matrix
    of the level below.
    """
    bound = M.bound if bound is None else gr.as_degree(bound)
    if bound != M.bound:
        M = md.rebound(M, bound)
    p = M.p
    gen_degrees, mats = [], {}
    gens = tor.module_generators(M)
    gen_degrees.append([u for u, _ in gens])
    augmentation = [vec for _, vec in gens]
    current = M
    cur_gens = gens
    j = 0
    while True:
        ms = gr.multiset_from_list([u for u, _ in cur_gens])
        F = md.free_module(ms, p, bound=bound, n=M.n)
        eps_mats = {}
        for v in gr.grid(bound):
            cols = [
                la.matmul(current.phi(u, v), vec, p)
                for u, vec in cur_gens
                if gr.leq(u, v)
            ]
            eps_mats[v] = (
                np.array(cols, dtype=np.int64).T
                if cols
                else la.zeros(current.dim(v), 0)
            )
        eps = md.GradedModuleMap(F, current, eps_mats)
        kernel_rows = {v: la.kernel_basis(eps.at(v), p) for v in gr.grid(bound)}
        if all(rows.shape[0] == 0 for rows in kernel_rows.values()):
            break
        K = md.basis_module(F, kernel_rows)
        next_gens = tor.module_generators(K)
        d = la.zeros(len(cur_gens), len(next_gens))
        for l, (u, row) in enumerate(next_gens):
            ambient = la.matmul(row, K.bases[u], p)
            for c, k in enumerate(F.gen_index[u]):
                d[k, l] = ambient[c]
        mats[j + 1] = d
        gen_degrees.append([u for u, _ in next_gens])
        current = K
        cur_gens = next_gens
        j += 1
    return gen_degrees, mats, augmentation


def _assert_matches_reference(M, bound=None):
    res = tor.minimal_resolution(M, bound=bound)
    gen_degrees, d, augmentation = _reference_resolution(M, bound=bound)
    assert res.gen_degrees == gen_degrees
    assert sorted(res.d) == sorted(d)
    for j, mat in d.items():
        assert res.d[j].shape == mat.shape and (res.d[j] == mat).all(), j
    assert len(res.augmentation) == len(augmentation)
    for got, want in zip(res.augmentation, augmentation):
        assert got.shape == want.shape and (got == want).all()
    # the stored maps are the ones the resolution evaluates everywhere
    for v in gr.grid(res.bound):
        for j in range(len(res.gen_degrees)):
            assert (res.evaluate(j, v) == res.maps[j].at(v)).all()


@pytest.mark.parametrize("seed", range(24))
def test_resolution_matches_reference_on_random_homology(seed):
    p = (2, 3, 5)[seed % 3]
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        for q in range(cx.max_dim() + 1):
            H, _, _ = md.homology_module(cx, q, p)
            _assert_matches_reference(H)
            _assert_matches_reference(H, bound=tuple(b + 1 for b in H.bound))


@pytest.mark.parametrize(
    "xi0, xi1, q, every",
    [(XI0_MIXED, XI1_MIXED, 3, 1), (XI0_FOUR_LINES, XI1_FOUR_LINES, 5, 25)],
    ids=["mixed-gf3", "four-lines-gf5-every-25th"],
)
def test_resolution_matches_reference_on_census_cokernels(xi0, xi1, q, every):
    families = ob.enumerate_families(xi0, xi1, q)
    for fam in families[::every]:
        _assert_matches_reference(ob.family_to_module(fam))
