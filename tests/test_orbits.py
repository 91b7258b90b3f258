"""Relation-family enumeration, GL-orbits, and the separating invariants."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import census_reference as ref

from torpers import InternalCheckError, ValidationError
from torpers import exactla as la
from torpers import grading as gr
from torpers import orbits as ob

XI0_FOUR_LINES = {(0, 0): 2}
XI1_FOUR_LINES = {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1}

XI0_MIXED = {(0, 1): 1, (1, 0): 2}
XI1_MIXED = {(2, 0): 1, (1, 1): 1, (1, 2): 1}

XI0_LINE = {(0,): 2, (2,): 1}
XI1_LINE = {(4,): 1}


def test_gaussian_binomial_values():
    assert ob.gaussian_binomial(2, 1, 5) == 6
    assert ob.gaussian_binomial(3, 1, 3) == 13
    assert ob.gaussian_binomial(4, 2, 2) == 35
    assert ob.gaussian_binomial(3, 0, 7) == 1
    assert ob.gaussian_binomial(2, 3, 5) == 0


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([2, 3]),
)
def test_subspaces_enumeration_is_exact(a, d, q):
    mats = list(ob.subspaces(a, d, q))
    assert len(mats) == ob.gaussian_binomial(a, d, q)
    seen = {tuple(m.flatten()) for m in mats}
    assert len(seen) == len(mats)
    for m in mats:
        r, rank, _ = la.rref(m, q)
        assert rank == d and (r == m).all()


def test_enumerate_four_lines_count():
    fams = ob.enumerate_families(XI0_FOUR_LINES, XI1_FOUR_LINES, 5)
    assert len(fams) == 6 ** 4
    for fam in fams[:20]:
        ref.check_family(fam)


def test_enumerate_mixed_count_and_containment():
    fams = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    # one line in the plane, then a flag: a line inside a plane of k^3
    assert len(fams) == 4 * 13 * 4
    for fam in fams[::25]:
        ref.check_family(fam)


def test_a_filter_that_keeps_no_extension_fails_the_second_count(monkeypatch):
    # reduce_mod_rows that reduces nothing keeps no candidate over a nonzero
    # push; la.rank still spans the pushed line, so [2 - 1, 2 - 1]_3 = 4
    # extensions were due at the first degree with a relation below it
    monkeypatch.setattr(la, "reduce_mod_rows", lambda v, basis, p: np.asarray(v) % p)
    want = (
        "relation degree [1, 2]: partial family [0] has 0 extensions, but its "
        "pushed rows span dimension 1, which gives 4"
    )
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)


def test_a_group_generator_refused_is_a_bug(monkeypatch):
    # group_generators makes every element itself, so one GroupElement
    # refuses is an internal failure, not bad input
    monkeypatch.setattr(la, "rank", lambda a, p: 0)
    with pytest.raises(InternalCheckError, match="group generator refused"):
        ob.group_generators(XI0_MIXED, 3)


def test_enumerate_empty_relations():
    fams = ob.enumerate_families({(0, 0): 2}, {}, 3)
    assert len(fams) == 1
    assert fams[0].degrees == ()


def test_enumerate_budget_guard():
    with pytest.raises(ValidationError, match="budget"):
        ob.enumerate_families(
            {(0, 0): 6}, {(1, 1): 3}, 5, limit=100
        )


def test_group_element_rejects_incomparable_link():
    degs = [(0, 1), (1, 0)]
    bad = np.array([[1, 1], [0, 1]])
    with pytest.raises(ValidationError):
        ob.GroupElement(bad, degs, 3)


def test_group_element_rejects_singular():
    degs = [(0, 0), (0, 0)]
    with pytest.raises(ValidationError):
        ob.GroupElement(np.array([[1, 1], [1, 1]]), degs, 2)


def test_group_action_preserves_validity():
    fams = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    gens = ob.group_generators(XI0_MIXED, 3)
    encodings = {f.encode() for f in fams}
    for fam in fams[::40]:
        for g in gens:
            moved = ob.RelationFamily(
                fam.xi0,
                fam.xi1,
                3,
                {v: ob.apply_group_element(g, v, fam.spaces[v]) for v in fam.degrees},
            )
            ref.check_family(moved)
            assert moved.encode() in encodings


@pytest.mark.parametrize("q", [2, 3, 5])
def test_two_orbits_on_the_projective_plane(q):
    fams = ob.enumerate_families(XI0_LINE, XI1_LINE, q)
    assert len(fams) == q * q + q + 1
    orbits = ob.orbit_partition(fams, XI0_LINE, q)
    assert len(orbits) == 2
    assert sorted(o.size for o in orbits) == [q + 1, q * q]


def _family_level_partition(families, xi0, q):
    """The family-level BFS orbit_partition replaced: every generator moves
    every subspace of every family it reaches."""
    by_enc = {fam.encode(): i for i, fam in enumerate(families)}
    generators = ob.group_generators(xi0, q)
    seen, orbits = set(), []
    for fam in families:
        if fam.encode() in seen:
            continue
        queue, members = [fam], {fam.encode()}
        while queue:
            cur = queue.pop()
            for g in generators:
                spaces = {
                    v: la.row_space(la.matmul(cur.spaces[v], g.restrict(v).T, q), q)
                    for v in cur.degrees
                }
                nxt = ob.RelationFamily(cur.xi0, cur.xi1, q, spaces)
                assert nxt.encode() in by_enc
                if nxt.encode() not in members:
                    members.add(nxt.encode())
                    queue.append(nxt)
        seen |= members
        rep = min(members)
        orbits.append((rep, sorted(by_enc[e] for e in members), len(members)))
    return sorted(orbits)


PARTITION_SHAPES = [
    (XI0_FOUR_LINES, XI1_FOUR_LINES, 3),
    (XI0_FOUR_LINES, XI1_FOUR_LINES, 5),
    (XI0_MIXED, XI1_MIXED, 3),
    (XI0_LINE, XI1_LINE, 2),
    (XI0_LINE, XI1_LINE, 3),
    (XI0_LINE, XI1_LINE, 5),
    ({(0, 0): 2}, {}, 3),  # no relations: one empty family
    ({(0, 0): 1}, {(1, 1): 2}, 3),  # two relations on one generator: no family
]


@pytest.mark.parametrize("xi0, xi1, q", PARTITION_SHAPES)
def test_orbit_partition_matches_the_family_level_bfs(xi0, xi1, q):
    fams = ob.enumerate_families(xi0, xi1, q)
    orbits = ob.orbit_partition(fams, xi0, q)
    got = [(o.rep.encode(), o.members, o.size) for o in orbits]
    assert got == _family_level_partition(fams, xi0, q)
    assert all(o.index in o.members for o in orbits)
    assert all(o.rep.positions == fams[o.index].positions for o in orbits)


def test_orbit_partition_acts_once_per_distinct_subspace(monkeypatch):
    fams = ob.enumerate_families(XI0_FOUR_LINES, XI1_FOUR_LINES, 5)
    calls = []
    act = ob.apply_group_element

    def counting(g, v, space):
        calls.append(v)
        return act(g, v, space)

    monkeypatch.setattr(ob, "apply_group_element", counting)
    ob.orbit_partition(fams, XI0_FOUR_LINES, 5)
    # 3 generators (two transvections, one scaling) on the 6 lines of GF(5)^2
    # at each of the 4 relation degrees
    assert len(calls) == 3 * 6 * 4


def test_orbit_partition_encodes_only_used_subspaces_images_and_representatives(
    monkeypatch,
):
    fams = ob.enumerate_families(XI0_FOUR_LINES, XI1_FOUR_LINES, 5)
    calls = []
    encode = ob._encode_space

    def counting(space):
        calls.append(space.shape)
        return encode(space)

    monkeypatch.setattr(ob, "_encode_space", counting)
    orbits = ob.orbit_partition(fams, XI0_FOUR_LINES, 5)
    # the 6 lines at each of the 4 degrees and their images under the 3
    # generators; the representatives' encodings are read off those
    assert len(orbits) == 17
    assert len(calls) == 6 * 4 + 3 * 6 * 4
    assert [o.key for o in orbits] == sorted(o.rep.encode() for o in orbits)


@pytest.mark.parametrize(
    "xi0, xi1, q, want",
    [(XI0_FOUR_LINES, XI1_FOUR_LINES, 5, 96), (XI0_MIXED, XI1_MIXED, 3, 150)],
)
def test_classify_encodes_no_representative_again(monkeypatch, xi0, xi1, q, want):
    # the orbit order and the separation check read each orbit's key, so a
    # whole census encodes only what orbit_partition does
    calls = []
    encode = ob._encode_space

    def counting(space):
        calls.append(space.shape)
        return encode(space)

    monkeypatch.setattr(ob, "_encode_space", counting)
    ob.classify(xi0, xi1, q)
    assert len(calls) == want


@pytest.mark.parametrize("xi0, xi1, q", PARTITION_SHAPES)
def test_family_positions_index_the_subspaces_at_each_degree(xi0, xi1, q):
    fams = ob.enumerate_families(xi0, xi1, q)
    births = [(g,) for g in gr.multiset_to_list(xi0)]
    candidates = {
        v: list(ob.subspaces(len(gr.present(births, v)), gr.staircase_count(xi1, v), q))
        for v in sorted(xi1)
    }
    shared = {}  # (degree, position) -> the first family's array there
    for fam in fams:
        assert len(fam.positions) == len(fam.degrees)
        for v, c in zip(fam.degrees, fam.positions):
            assert (candidates[v][c] == fam.spaces[v]).all()
            assert shared.setdefault((v, c), fam.spaces[v]) is fam.spaces[v]


def test_orbit_partition_refuses_a_family_without_positions():
    fams = ob.enumerate_families(XI0_LINE, XI1_LINE, 3)
    by_hand = ob.RelationFamily(XI0_LINE, XI1_LINE, 3, fams[0].spaces)
    assert by_hand.positions is None
    with pytest.raises(ValueError, match="positions"):
        ob.orbit_partition(fams[1:] + [by_hand], XI0_LINE, 3)


def _rows(fams, rows):
    """The Families holding the given rows of fams' positions, in that order."""
    pos = fams.positions[rows]
    return ob.Families(fams.xi0, fams.xi1, fams.q, fams.candidates, pos)


def test_orbit_partition_refuses_a_duplicate_family():
    fams = ob.enumerate_families(XI0_LINE, XI1_LINE, 3)
    with pytest.raises(ValidationError, match="duplicate"):
        ob.orbit_partition(_rows(fams, list(range(len(fams))) + [4]), XI0_LINE, 3)


def test_orbit_partition_refuses_a_family_list_the_group_leaves():
    fams = ob.enumerate_families(XI0_FOUR_LINES, XI1_FOUR_LINES, 3)
    # every line still occurs at every degree, but one family is missing
    with pytest.raises(InternalCheckError, match="left the enumerated family set"):
        ob.orbit_partition(_rows(fams, slice(1, None)), XI0_FOUR_LINES, 3)


def test_orbit_partition_refuses_an_image_outside_the_subspaces(monkeypatch):
    fams = ob.enumerate_families(XI0_LINE, XI1_LINE, 3)
    nowhere = la.zeros(0, 3)  # no family has a zero space at (4,)
    monkeypatch.setattr(ob, "apply_group_element", lambda g, v, space: nowhere)
    with pytest.raises(InternalCheckError, match="left the enumerated family set"):
        ob.orbit_partition(fams, XI0_LINE, 3)


def test_orbit_partition_refuses_a_generator_that_is_not_a_bijection(monkeypatch):
    fams = ob.enumerate_families(XI0_LINE, XI1_LINE, 3)
    first = fams[0].spaces[(4,)]
    monkeypatch.setattr(ob, "apply_group_element", lambda g, v, space: first)
    with pytest.raises(InternalCheckError, match=r"does not permute .* at \[4\]"):
        ob.orbit_partition(fams, XI0_LINE, 3)


def test_single_family_single_orbit():
    fams = ob.enumerate_families({(0, 0): 2}, {}, 3)
    orbits = ob.orbit_partition(fams, {(0, 0): 2}, 3)
    assert len(orbits) == 1 and orbits[0].size == 1


def test_family_to_module_dims_line_case():
    fam = ob.RelationFamily(
        XI0_LINE, XI1_LINE, 3, {(4,): np.array([[1, 0, 0]])}
    )
    ref.check_family(fam)
    M = ob.family_to_module(fam)
    # two free strands plus one strand killed after four steps
    dims = [M.dim(gr.to_index(M.coords, (i,))) for i in range(6)]
    assert dims == [2, 2, 3, 3, 2, 2]


def test_family_to_module_empty_is_free():
    fam = ob.RelationFamily({(0, 0): 2}, {}, 3, {})
    ref.check_family(fam)
    M = ob.family_to_module(fam)
    assert all(
        M.dim(gr.to_index(M.coords, d)) == 2 for d in [(0, 0), (1, 0), (2, 2)]
    )


EXPECTED_FOUR_LINES = {
    # coincidence pattern of the four lines -> degrees of the second syzygies
    "(0, 0, 0, 0)": {(1, 3): 1, (2, 2): 1, (3, 1): 1},
    "(0, 0, 0, inf)": {(1, 3): 1, (2, 2): 1},
    "(0, 0, inf, 0)": {(1, 3): 1, (3, 2): 1},
    "(0, 0, inf, inf)": {(1, 3): 1, (3, 1): 1},
    "(0, 0, inf, 1)": {(1, 3): 1, (3, 2): 1},
    "(0, inf, 0, 0)": {(2, 3): 1, (3, 1): 1},
    "(0, inf, 0, inf)": {(2, 3): 1, (3, 2): 1},
    "(0, inf, 0, 1)": {(2, 3): 1, (3, 2): 1},
    "(0, inf, inf, 0)": {(2, 2): 1, (3, 3): 1},
    "(0, inf, inf, inf)": {(2, 2): 1, (3, 1): 1},
    "(0, inf, inf, 1)": {(2, 2): 1, (3, 3): 1},
    # first and last lines equal: the pair syzygy at (3,3) factors through
    # the two triple syzygies (x*s1 - y*s2), so it is not minimal
    "(0, inf, 1, 0)": {(2, 3): 1, (3, 2): 1},
    "(0, inf, 1, inf)": {(2, 3): 1, (3, 2): 1},
    "(0, inf, 1, 1)": {(2, 3): 1, (3, 1): 1},
}


@pytest.fixture(scope="module")
def four_lines_report():
    return ob.classify(XI0_FOUR_LINES, XI1_FOUR_LINES, 5)


def test_four_lines_orbit_census(four_lines_report):
    rep = four_lines_report
    assert len(rep.orbits) == 17
    assert sum(o.size for o in rep.orbits) == 1296
    assert sorted(o.size for o in rep.orbits) == [6] + [30] * 7 + [120] * 9


def test_four_lines_degenerate_xi2_table(four_lines_report):
    rep = four_lines_report
    by_label = {e["label"]: e for e in rep.entries}
    for label, want in EXPECTED_FOUR_LINES.items():
        assert by_label[label]["xi"][2] == want, label


def test_four_lines_generic_orbits(four_lines_report):
    rep = four_lines_report
    generic = [e for e in rep.entries if "a =" in e["label"]]
    assert len(generic) == 3
    assert sorted(e["label"][-1] for e in generic) == ["2", "3", "4"]
    for e in generic:
        assert e["xi"][2] == {(2, 3): 1, (3, 2): 1}
    # the first Grassmannian coordinate agrees across the generic orbits,
    # the second one separates them
    firsts = {e["y_enc"][0] for e in generic}
    seconds = {e["y_enc"][1] for e in generic}
    assert len(firsts) == 1
    assert len(seconds) == 3


def test_four_lines_xi2_groups_and_injectivity(four_lines_report):
    rep = four_lines_report
    assert len(rep.groups) == 8
    assert all(inj for _, _, inj in rep.groups)
    sizes = sorted(len(ids) for _, ids, inj in rep.groups)
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 7]


def test_four_lines_json_shape(four_lines_report):
    out = four_lines_report.to_json()
    assert out["field"] == 5
    assert out["orbit_count"] == 17
    assert out["family_count"] == 1296
    assert out["phi_separates"] is True
    assert len(out["orbits"]) == 17
    assert all("representative" in row for row in out["orbits"])


@pytest.fixture(scope="module")
def mixed_report():
    return ob.classify(XI0_MIXED, XI1_MIXED, 3)


def test_mixed_orbit_census(mixed_report):
    rep = mixed_report
    assert sum(o.size for o in rep.orbits) == 208
    assert len(rep.orbits) == 13


def test_mixed_phi_bar_not_injective(mixed_report):
    rep = mixed_report
    shared = [
        (k, e)
        for k, e in enumerate(rep.entries)
        if e["xi"][2] == {(2, 1): 1}
    ]
    assert len(shared) >= 3
    images = {e["y_enc"] for _, e in shared}
    assert len(images) == 1
    # normalized row [1, -1] in the coordinates of the two earlier relations
    (_, e0) = shared[0]
    assert e0["y"][0][2].tolist() == [[1, 2]]
    for key, ids, inj in rep.groups:
        if dict(key)[2] == (((2, 1), 1),):
            assert inj is False


def test_mixed_phi_separates(mixed_report):
    # classify would have raised if the combined point failed to separate
    encs = {
        (rep.rep.encode(), mixed_report.entries[k]["y_enc"])
        for k, rep in enumerate(mixed_report.orbits)
    }
    assert len(encs) == len(mixed_report.orbits)


def _random_line_multisets(rng):
    n_gens = rng.integers(1, 4)
    xi0 = {}
    for _ in range(n_gens):
        d = (int(rng.integers(0, 3)),)
        xi0[d] = xi0.get(d, 0) + 1
    n_rel = rng.integers(1, 3)
    xi1 = {}
    for _ in range(n_rel):
        d = (int(rng.integers(1, 6)),)
        xi1[d] = xi1.get(d, 0) + 1
    return xi0, xi1


def test_orbit_count_is_field_independent_for_one_grading():
    rng = np.random.default_rng(42)
    cases = 0
    while cases < 5:
        xi0, xi1 = _random_line_multisets(rng)
        counts = {}
        try:
            for q in (2, 3, 5):
                fams = ob.enumerate_families(xi0, xi1, q, limit=3000)
                counts[q] = len(ob.orbit_partition(fams, xi0, q))
        except ValidationError:
            continue  # budget blown for the larger fields; resample
        assert len(set(counts.values())) == 1, (xi0, xi1, counts)
        cases += 1


def test_classify_spot_checks_members_other_than_the_representative(monkeypatch):
    converted = []
    to_module = ob.family_to_module

    def recording(fams):
        converted.extend(fam.encode() for fam in fams)
        return to_module(fams)

    monkeypatch.setattr(ob, "family_to_module", recording)
    report = ob.classify(XI0_MIXED, XI1_MIXED, 3)
    families = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    assert any(1 < o.size <= ob.SPOT_CHECKS for o in report.orbits)
    for orbit in report.orbits:
        rep = orbit.rep.encode()
        others = {families[k].encode() for k in orbit.members} - {rep}
        checked = [e for e in converted if e in others]
        assert converted.count(rep) == 1
        assert len(set(checked)) == len(checked)
        assert len(checked) == min(ob.SPOT_CHECKS, orbit.size - 1)
    assert len(converted) == sum(
        1 + min(ob.SPOT_CHECKS, o.size - 1) for o in report.orbits
    )


# -- the array census against the per-family reference ------------------------

REFERENCE_SHAPES = [
    (XI0_FOUR_LINES, XI1_FOUR_LINES, 5),
    (XI0_MIXED, XI1_MIXED, 3),
    (XI0_FOUR_LINES, XI1_FOUR_LINES, 7),
    (XI0_FOUR_LINES, XI1_FOUR_LINES, 11),
    # (1, 1) has two maximal relation degrees below it: no closed form
    ({(0, 0): 3}, {(1, 0): 1, (0, 1): 1, (1, 1): 1}, 2),
] + PARTITION_SHAPES


@pytest.mark.parametrize("xi0, xi1, q", REFERENCE_SHAPES)
def test_the_array_census_matches_the_per_family_reference(xi0, xi1, q):
    fams = ob.enumerate_families(xi0, xi1, q)
    want, orbits = ref.reference_census(xi0, xi1, q)
    ref.same_families(fams, want)
    ref.same_orbits(ob.orbit_partition(fams, xi0, q), orbits)


def _random_census_shape(rng):
    """A random (xi0, xi1, q): n <= 2, q in {2, 3, 5}, one to three
    generators at degrees in 0..1 per axis and at most as many relations,
    at degrees in 1..3."""
    n = int(rng.integers(1, 3))
    q = int(rng.choice([2, 3, 5]))

    def degrees(count, low, high):
        return [tuple(rng.integers(low, high, size=n).tolist()) for _ in range(count)]

    gens = int(rng.integers(1, 4))
    xi0 = gr.multiset_from_list(degrees(gens, 0, 2))
    xi1 = gr.multiset_from_list(degrees(int(rng.integers(1, gens + 1)), 1, 4))
    return xi0, xi1, q


@pytest.mark.parametrize("seed", range(40))
def test_random_small_censuses_match_the_per_family_reference(seed):
    xi0, xi1, q = _random_census_shape(np.random.default_rng(seed))
    want, orbits = ref.reference_census(xi0, xi1, q)
    fams = ob.enumerate_families(xi0, xi1, q)
    ref.same_families(fams, want)
    ref.same_orbits(ob.orbit_partition(fams, xi0, q), orbits)


def test_the_closed_form_is_checked_against_the_enumeration(monkeypatch):
    births = [(g,) for g in gr.multiset_to_list(XI0_MIXED)]
    degrees = sorted(XI1_MIXED)
    index = [gr.present(births, v) for v in degrees]
    dims = [gr.staircase_count(XI1_MIXED, v) for v in degrees]
    below = [[], [0], []]  # (1, 1) <= (1, 2); (2, 0) is incomparable to both
    assert ob._closed_form(below, index, dims, 3) == 13 * 4 * 4 == 208
    # relation degrees (0, 1), (1, 0) and (1, 1): two maximal ones below (1, 1)
    assert ob._closed_form([[], [], [0, 1]], [[0]] * 3, [1, 1, 3], 2) is None
    closed = ob._closed_form
    monkeypatch.setattr(ob, "_closed_form", lambda *args: closed(*args) + 1)
    want = "the enumeration found 208 families, but the closed form gives 209"
    with pytest.raises(InternalCheckError, match=want):
        ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)


def test_a_flipped_containment_entry_fails_the_second_count(monkeypatch):
    # the first plane at (1, 2) holds the first line at (1, 1); with that
    # entry of the table flipped, the first partial family keeps 3 planes
    contains = ob._containment

    def flipped(*args):
        table = contains(*args)
        table[0, 0] = not table[0, 0]
        return table

    monkeypatch.setattr(ob, "_containment", flipped)
    want = (
        "relation degree [1, 2]: partial family [0] has 3 extensions, but its "
        "pushed rows span dimension 1, which gives 4"
    )
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)


def test_a_generator_table_with_one_collision_is_refused(monkeypatch):
    # the second line is sent where the first goes: every image is a used
    # subspace, but two positions share one
    fams = ob.enumerate_families(XI0_LINE, XI1_LINE, 3)
    first, second = fams.candidates[0][:2]
    act = ob.apply_group_element
    monkeypatch.setattr(
        ob,
        "apply_group_element",
        lambda g, v, space: act(g, v, first if space is second else space),
    )
    with pytest.raises(InternalCheckError, match=r"does not permute .* at \[4\]"):
        ob.orbit_partition(fams, XI0_LINE, 3)


def test_a_generator_that_breaks_containment_leaves_the_family_set(monkeypatch):
    # the group fixes every plane at (1, 2) but moves the lines at (1, 1):
    # each table is a bijection, yet some image line leaves its plane
    fams = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    act = ob.apply_group_element
    monkeypatch.setattr(
        ob,
        "apply_group_element",
        lambda g, v, space: space if v == (1, 2) else act(g, v, space),
    )
    with pytest.raises(InternalCheckError, match="left the enumerated family set"):
        ob.orbit_partition(fams, XI0_MIXED, 3)


def test_classify_builds_family_objects_only_for_representatives_and_spot_checks(
    monkeypatch,
):
    built = []
    init = ob.RelationFamily.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ob.RelationFamily, "__init__", counting)
    report = ob.classify(XI0_MIXED, XI1_MIXED, 3)
    spots = sum(min(ob.SPOT_CHECKS, o.size - 1) for o in report.orbits)
    assert (len(report.orbits), spots) == (13, 59)
    assert len(built) == 13 + 59
