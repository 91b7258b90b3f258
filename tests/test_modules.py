import numpy as np
import pytest

from torpers import InternalCheckError
from torpers import exactla as la
from torpers import grading as gr
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
    c0 = md.chains_module(circle, 0, 2)
    assert c0.bound == (2, 1)
    assert all(c0.dim(v) == 3 for v in gr.grid((2, 1)))
    c1 = md.chains_module(circle, 1, 2)
    assert c1.dim((0, 0)) == 0
    assert c1.dim((1, 1)) == 2
    assert c1.dim((2, 1)) == 3
    # degrees past the bound read as the stabilized values
    assert c1.dim((7, 9)) == 3
    assert (c1.step((2, 1), 0) == la.eye(3)).all()


def test_chains_above_top_dimension(sphere):
    c5 = md.chains_module(sphere, 5, 3)
    assert c5.is_zero()


def test_sphere_c2_at_21(sphere):
    c2 = md.chains_module(sphere, 2, 2)
    assert c2.labels[(2, 1)] == ["tau"]
    assert c2.labels[(3, 3)] == ["s1", "s2", "tau"]


def test_boundary_rank_circle(circle):
    d1 = md.ChainData(circle, 3).boundary(1)
    m = d1.at((2, 1))
    assert m.shape == (3, 3)
    assert la.rank(m, 3) == 2


def test_boundary_squares_to_zero(sphere):
    d2 = md.ChainData(sphere, 2).boundary(2)
    d1 = md.ChainData(sphere, 2).boundary(1)
    assert d1.compose(d2).is_zero()


def test_sphere_boundary_entries(sphere):
    d2 = md.ChainData(sphere, 5).boundary(2)
    src = d2.source.labels[(3, 3)]
    tgt = d2.target.labels[(3, 3)]
    m = d2.at((3, 3))
    col = {cid: m[:, k] for k, cid in enumerate(src)}
    a, b = tgt.index("a"), tgt.index("b")
    assert col["tau"][a] == 1 and col["tau"][b] == 4
    assert col["s1"][a] == 1 and col["s2"][b] == 1


def test_homology_circle_h0(circle):
    H, Z, B = md.homology_module(circle, 0, 2)
    expected = {
        (0, 0): 3, (1, 0): 2, (2, 0): 1,
        (0, 1): 2, (1, 1): 1, (2, 1): 1,
    }
    assert H.dim_grid() == expected
    # no boundaries yet at the origin, everything is a cycle
    assert Z.dim((0, 0)) == 3 and B.dim((0, 0)) == 0
    assert B.dim((2, 1)) == 2


def test_homology_circle_h1(circle):
    H, Z, B = md.homology_module(circle, 1, 2)
    grid = H.dim_grid()
    assert grid[(2, 1)] == 1
    assert all(d == 0 for v, d in grid.items() if v != (2, 1))


def test_homology_steps_are_induced(circle):
    H, _, _ = md.homology_module(circle, 0, 3)
    s = H.step((0, 0), 0)
    assert s.shape == (2, 3)
    assert la.rank(s, 3) == 2


def test_homology_sphere_h2(sphere):
    H, _, _ = md.homology_module(sphere, 2, 2)
    assert H.dim((3, 3)) == 1
    assert H.dim((2, 1)) == 0


def test_class_coords_roundtrip(circle):
    H, _, _ = md.homology_module(circle, 0, 5)
    v = (1, 0)
    for k, row in enumerate(H.bases[v]):
        c = md.class_coords(H, v, row, 5)
        want = np.zeros(H.dim(v), dtype=np.int64)
        want[k] = 1
        assert (c == want).all()


def test_present_cokernel_one_variable():
    pres = Presentation(1, [(0,), (0,), (2,)], [((4,), {2: 1})])
    mod = md.present_cokernel(pres, 2)
    dims = [mod.dim((t,)) for t in range(6)]
    assert dims == [2, 2, 3, 3, 2, 2]


def test_present_cokernel_free_when_no_relations():
    ms = {(0, 0): 2, (1, 1): 1}
    mod = md.free_module(ms, 3, bound=(2, 2))
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
        for bound in (None, wide):
            F = md.free_module(ms, p, bound=bound, n=n)
            ref = md.present_cokernel(pres, p, bound=bound)
            assert F.bound == ref.bound
            assert F.dims == ref.dims
            assert F.steps.keys() == ref.steps.keys()
            assert all((F.steps[k] == ref.steps[k]).all() for k in F.steps)
            assert F.gen_index == ref.gen_index
            # the staircase: dims count the generators at or below v, and
            # every step sends each generator to itself
            for v in gr.grid(F.bound):
                assert F.dim(v) == gr.staircase_count(ms, v)
                for j in range(n):
                    if v[j] < F.bound[j]:
                        w = gr.step(v, j)
                        want = [
                            [int(a == b) for b in F.gen_index[v]]
                            for a in F.gen_index[w]
                        ]
                        assert F.step(v, j).tolist() == want


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
    ok, violation = md.single_step_check(oneatatime)
    assert ok and violation is None
    ok, violation = md.single_step_check(sphere)
    assert not ok
    assert violation["to"] == (2, 1)
    assert violation["after"] - violation["before"] == 2
    # three vertices at the origin do not violate step counts, entry
    # degrees at the origin are not reached by any step
    ok, _ = md.single_step_check(circle)
    assert ok


def test_total_betti(circle, sphere):
    assert md.total_betti(circle, 2) == (1, 1)
    assert md.total_betti(sphere, 2) == (1, 0, 1)
    assert md.total_betti(sphere, 5) == (1, 0, 1)


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


def test_naturality_is_asserted(circle):
    d1 = md.ChainData(circle, 2).boundary(1)
    mats = dict(d1.mats)
    bad = mats[(2, 1)].copy()
    bad[0, 0] = (bad[0, 0] + 1) % 2
    mats[(2, 1)] = bad
    with pytest.raises(InternalCheckError, match="natural"):
        md.GradedModuleMap(d1.source, d1.target, mats)


def test_phi_staircase(circle):
    c0 = md.chains_module(circle, 0, 2)
    m = c0.phi((0, 0), (2, 1))
    assert (m == la.eye(3)).all()
    H, _, _ = md.homology_module(circle, 0, 2)
    assert H.phi((0, 0), (2, 1)).shape == (1, 3)
    assert la.rank(H.phi((0, 0), (2, 1)), 2) == 1
