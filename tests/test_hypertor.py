"""Hypertor, both spectral sequence pages, and the recovery complex T."""

import numpy as np
import pytest

from torpers import InternalCheckError, ValidationError
from torpers import complexes as cxm
from torpers import hypertor as ht


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
    dims = ht.hypertor_dims(circle, p)
    assert dims[0] == {(0, 0): 3}
    assert dims[1] == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    assert dims[2] == {}
    assert dims[3] == {}


def test_hypertor_sphere(sphere, p):
    dims = ht.hypertor_dims(sphere, p)
    assert dims[0] == {(0, 0): 2}
    assert dims[1] == {(0, 0): 2, (2, 1): 1}
    assert dims[2] == {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1}
    assert dims[3] == {(3, 2): 1}
    assert dims[4] == {}


def test_hypertor_single_vertex():
    cx = cxm.parse_mfc("n 2\nsimplex a @ (0,0)\n")
    dims = ht.hypertor_dims(cx, 3)
    assert dims[0] == {(0, 0): 1}
    assert dims[1] == {}
    assert dims[2] == {}


def test_e1_circle_degenerates(circle, p):
    page = ht.e1_page(circle, p)
    assert page.verdict is True
    assert page.dims(0, 0) == {(0, 0): 3}
    assert page.dims(1, 0) == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    assert page.dims(0, 1) == {}
    assert page.dims(1, 1) == {}
    for mats in page.d1.values():
        for m in mats.values():
            assert not m.any()


def test_e1_sphere(sphere):
    page = ht.e1_page(sphere, 2)
    assert page.verdict is True
    assert page.dims(1, 0) == {(0, 0): 2, (2, 1): 1}
    assert page.dims(2, 0) == {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1}
    assert page.dims(2, 1) == {(3, 2): 1}
    assert page.dims(1, 1) == {}


def test_e1_verdict_false_for_simultaneous_faces():
    cx = cxm.parse_mfc(SEGMENT_SIMULTANEOUS)
    page = ht.e1_page(cx, 2)
    assert page.verdict is False
    # the cellular boundary of the edge survives to a nonzero d1
    assert any(
        m.any() for mats in page.d1.values() for m in mats.values()
    )


def test_e1_json_shape(circle):
    page = ht.e1_page(circle, 3)
    out = page.to_json()
    assert out["verdict"] is True
    ids = {(cell["i"], cell["q"]) for cell in out["e1"]}
    assert (0, 0) in ids and (1, 0) in ids
    assert out["hypertor"][0] == [0, [[[0, 0], 3]]]


def test_d2_circle_kills_the_fake_class(circle, p):
    res = ht.d2(circle, 0, p)
    assert res.source_dims == {(2, 1): 1}
    assert res.target_dims == {(2, 1): 1}
    assert set(res.mats) == {(2, 1)}
    m = res.mats[(2, 1)]
    assert m.shape == (1, 1)
    assert m[0, 0] == (p - 1) % p
    assert res.rank() == 1


def test_d2_circle_top_row_is_empty(circle):
    # H_1 is free (the circle class never dies), so Tor_2 of it vanishes
    res = ht.d2(circle, 1, 5)
    assert res.source_dims == {}
    assert res.target_dims == {}
    assert res.mats == {}


def test_d2_contractible_is_empty():
    cx = cxm.parse_mfc(SEGMENT_SIMULTANEOUS)
    res = ht.d2(cx, 0, 3)
    assert res.mats == {}
    assert res.source_dims == {}


def test_d2_rejects_one_parameter_input():
    cx = cxm.parse_mfc("n 1\nsimplex a @ (0)\n")
    with pytest.raises(ValidationError):
        ht.d2(cx, 0, 2)


def test_d2_json_carries_degrees(circle):
    out = ht.d2(circle, 0, 3).to_json()
    assert out["q"] == 0
    assert out["blocks"][0]["degree"] == [2, 1]
    assert out["blocks"][0]["matrix"] == [[2]]


def test_t_complex_circle(circle, p):
    t = ht.build_t_complex(circle, p)
    assert [t.dim(ell) for ell in range(len(t.labels))] == [3, 3]
    assert t.betti() == (1, 1)
    assert t.to_json()["boundary_ranks"] == [2]


def test_t_complex_one_at_a_time(oneatatime, p):
    t = ht.build_t_complex(oneatatime, p)
    assert [t.dim(ell) for ell in range(len(t.labels))] == [5, 7, 2]
    assert t.to_json()["boundary_ranks"] == [4, 2]
    assert t.betti() == (1, 1, 0)
    # the two extra 1-elements are the identification classes of B and C
    virtual = [lab for lab in t.labels[1] if lab[1] == 1]
    assert sorted(lab[3] for lab in virtual) == [(1, 1), (4, 1)]
    # canonical copies use the lexicographically least entry degree
    assert (0, 0, "B", (0, 1)) in t.canonical
    assert (0, 0, "B", (1, 0)) not in t.canonical


def test_t_complex_sphere_boundary(sphere):
    t = ht.build_t_complex(sphere, 5)
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

    def tampered(cx, p, bound=None):
        page = real(cx, p, bound=bound)
        page.table[(i, j)].dims[(9, 9)] = 1
        return page

    monkeypatch.setattr(ht, "e1_page", tampered)
    with pytest.raises(InternalCheckError, match="Tor_%d of C_%d" % (j, i)):
        ht.build_t_complex(oneatatime, 2)


def test_t_complex_needs_the_verdict():
    cx = cxm.parse_mfc(SEGMENT_SIMULTANEOUS)
    with pytest.raises(ValidationError):
        ht.build_t_complex(cx, 2)


def test_recovery_sphere(sphere, p):
    rep = ht.recovered_homology(sphere, p)
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
    assert rep["single_step"]["violation"]["to"] == [2, 1]


def test_recovery_one_at_a_time(oneatatime, p):
    rep = ht.recovered_homology(oneatatime, p)
    assert rep["betti"] == [1, 1, 0]
    assert rep["match"] is True
    assert rep["h_q_zero"] is True
    assert rep["single_step"]["ok"] is True
    assert rep["q_dims"] == [2, 4, 2]


def test_recovery_single_vertex():
    cx = cxm.parse_mfc("n 2\nsimplex a @ (0,0)\n")
    rep = ht.recovered_homology(cx, 2)
    assert rep["betti"] == [1]
    assert rep["match"] is True
    assert rep["q_dims"] == [0]
