import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torpers import grading as gr

degrees = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple)


def test_leq_basic():
    assert gr.leq((0, 0), (2, 1))
    assert gr.leq((1, 1), (1, 1))
    assert not gr.leq((2, 0), (1, 1))
    assert not gr.leq((0, 1), (1, 0))
    assert not gr.leq((0,), (0, 0))  # mismatched lengths are incomparable


def test_join():
    assert gr.join([(1, 0), (0, 2), (1, 1)]) == (1, 2)
    assert gr.join([], n=2) == (0, 0)
    with pytest.raises(ValueError):
        gr.join([])


def test_grid_is_lexicographic():
    assert list(gr.grid((1, 2))) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_as_degree_rejects_negative():
    with pytest.raises(ValueError):
        gr.as_degree((-1, 0))


def test_multiset_merging_and_order():
    ms = gr.multiset([((1, 0), 2), ((0, 1), 1), ((1, 0), 1)])
    assert ms == {(1, 0): 3, (0, 1): 1}
    assert gr.multiset_to_sorted_pairs(ms) == [((0, 1), 1), ((1, 0), 3)]
    assert sum(ms.values()) == 4


def test_multiset_json_round_trip():
    ms = gr.multiset([((2, 1), 1), ((0, 0), 3)])
    assert gr.multiset_from_json(gr.multiset_to_json(ms)) == ms


def test_staircase_count():
    ms = {(0, 0): 1, (1, 1): 2, (3, 0): 1}
    assert gr.staircase_count(ms, (0, 0)) == 1
    assert gr.staircase_count(ms, (1, 1)) == 3
    assert gr.staircase_count(ms, (3, 1)) == 4
    assert gr.staircase_count(ms, (2, 2)) == 3


@given(degrees, degrees, degrees)
def test_leq_is_a_partial_order(u, v, w):
    if len(u) == len(v) == len(w):
        assert gr.leq(u, u)
        if gr.leq(u, v) and gr.leq(v, u):
            assert u == v
        if gr.leq(u, v) and gr.leq(v, w):
            assert gr.leq(u, w)


@given(degrees, degrees)
def test_join_is_least_upper_bound(u, v):
    if len(u) == len(v):
        j = gr.join([u, v])
        assert gr.leq(u, j) and gr.leq(v, j)
        # any common upper bound dominates the join
        ub = tuple(max(a, b) + 1 for a, b in zip(u, v))
        assert gr.leq(j, ub)


def _upset(u, top):
    """Every degree w with u <= w <= (top,..,top), listed explicitly."""
    return set(itertools.product(*(range(a, top + 1) for a in u)))


@st.composite
def births_and_degrees(draw):
    n = draw(st.integers(1, 3))
    deg = st.tuples(*[st.integers(0, 3)] * n)
    births = []
    for _ in range(draw(st.integers(0, 5))):
        degs = draw(st.lists(deg, min_size=1, max_size=3, unique=True))
        # keep the minimal elements: an antichain of up to 3 degrees
        births.append(
            tuple(d for d in degs if not any(e != d and gr.leq(e, d) for e in degs))
        )
    return births, draw(deg), draw(deg), draw(deg)


@given(births_and_degrees())
def test_present_unit_steps_and_placement_match_brute_force(case):
    births, v, w, bound = case
    want = [k for k, b in enumerate(births) if any(v in _upset(u, 3) for u in b)]
    assert gr.present(births, v) == want
    box = list(itertools.product(*(range(b + 1) for b in bound)))
    steps = [
        (a, j, b)
        for a in box
        for b in box
        for j in range(len(bound))
        if b[j] == a[j] + 1 and all(b[i] == a[i] for i in range(len(bound)) if i != j)
    ]
    assert list(gr.unit_steps(bound)) == sorted(steps)
    # the items present at u = min(v, w) sit among those present at v
    u = tuple(min(a, b) for a, b in zip(v, w))
    sub = gr.present(births, u)
    assert gr.placement(sub, want) == [want.index(k) for k in sub]


@given(births_and_degrees())
def test_present_on_grid_matches_present_at_every_point(case):
    births, _, _, bound = case
    want = {v: gr.present(births, v) for v in gr.grid(bound)}
    got = gr.present_on_grid(births, bound)
    assert got == want and list(got) == list(want)


def _dimension_and_degrees(n):
    return st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(0, 9)] * n)))


@given(st.integers(1, 3).flatmap(_dimension_and_degrees))
def test_index_map_finds_the_cell_of_every_degree(case):
    n, degs = case
    coords = gr.critical_coords(degs, n)
    for c in coords:
        assert c[0] == 0 and list(c) == sorted(set(c))
    bound = gr.coords_bound(coords)
    for k in gr.grid(bound):
        assert gr.to_index(coords, gr.to_degree(coords, k)) == k
    top = gr.to_degree(coords, bound)
    for v in gr.grid(top):
        k = gr.to_index(coords, v)
        # the cell's own degree is at or below v, the next cell's is above
        assert gr.leq(gr.to_degree(coords, k), v)
        for a in range(n):
            assert gr.to_degree(coords, gr.step(k, a))[a] > v[a]
    # past the top, index steps are unit steps both ways
    past = tuple(b + 5 for b in bound)
    assert gr.to_degree(coords, past) == tuple(t + 5 for t in top)
    assert gr.to_index(coords, gr.to_degree(coords, past)) == past
