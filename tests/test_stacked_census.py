"""The census resolves its modules in stacks: one tor.xi per grid and dims
array, each module's tables equal to those it gets alone."""

import re

import numpy as np
import pytest

from test_orbits import XI0_FOUR_LINES, XI0_MIXED, XI1_FOUR_LINES, XI1_MIXED
from torpers import InternalCheckError
from torpers import grading as gr
from torpers import modules as md
from torpers import orbits as ob
from torpers import tor
from torpers.complexes import Presentation

CENSUSES = [(XI0_MIXED, XI1_MIXED, 3), (XI0_FOUR_LINES, XI1_FOUR_LINES, 5)]


def _assert_same_table(got, want):
    """Tables, Koszul dims and reps, and the resolution's generator degrees,
    maps and kernels, entry for entry."""
    assert got.tables == want.tables
    assert sorted(got.koszul) == sorted(want.koszul)
    for j, kt in want.koszul.items():
        assert got.koszul[j].dims == kt.dims
        assert got.koszul[j].reps.keys() == kt.reps.keys()
        for v, rows in kt.reps.items():
            assert np.array_equal(got.koszul[j].reps[v], rows), (j, v)
    a, b = got.resolution, want.resolution
    assert a.gen_degrees == b.gen_degrees
    assert sorted(a.d) == sorted(b.d)
    assert all(np.array_equal(a.d[j], b.d[j]) for j in b.d)
    assert len(a.kernels) == len(b.kernels)
    for ka, kb in zip(a.kernels, b.kernels):
        assert ka.keys() == kb.keys()
        assert all(np.array_equal(ka[v], kb[v]) for v in kb)


@pytest.mark.parametrize("xi0, xi1, q", CENSUSES, ids=["mixed-gf3", "four-lines-gf5"])
def test_each_stacked_table_equals_the_module_alone(monkeypatch, xi0, xi1, q):
    xi, calls = tor.xi, []

    def recording(M):
        out = xi(M)
        calls.append((M, out))
        return out

    monkeypatch.setattr(tor, "xi", recording)
    ob.classify(xi0, xi1, q)
    assert all(isinstance(stack, list) for stack, _ in calls)
    assert sum(len(stack) for stack, _ in calls) == {3: 72, 5: 102}[q]
    for stack, tables in calls:
        for M, table in zip(stack, tables):
            _assert_same_table(table, xi(M))


def test_the_mixed_census_resolves_once_per_dims_signature(monkeypatch):
    depths = {"minimal_resolution": [], "koszul_tor": []}
    for name, seen in depths.items():
        route = getattr(tor, name)

        def recording(M, *args, route=route, seen=seen):
            seen.append(len(M))
            return route(M, *args)

        monkeypatch.setattr(tor, name, recording)
    ob.classify(XI0_MIXED, XI1_MIXED, 3)
    assert sorted(depths["minimal_resolution"]) == [14, 22, 36]
    assert sorted(depths["koszul_tor"]) == [14, 22, 36]


def _module(n, bound, steps, p=5):
    """The module with dimension 1 at every index point and the given 1 x 1
    steps (v, axis) -> scalar."""
    dims = {v: 1 for v in gr.grid(bound)}
    steps = {key: np.array([[x]], dtype=np.int64) for key, x in steps.items()}
    return md.PersistenceModule(n, bound, dims, steps, p)


def _equal_dims_pairs():
    """Pairs of modules with the same dims and different xi: on a line, the
    step is the identity (one generator) or zero (two); on the square, every
    step is the identity, or the steps along axis 0 are zero.  The two
    cokernels (found by a seeded search) share dims and xi_0 but not xi_1:
    the relation at (2, 2) is redundant in the first only, so the stack
    splits at level 1 of the resolution, not at its generators."""
    line = [_module(1, (1,), {((0,), 0): x}) for x in (1, 0)]
    steps = list(gr.unit_steps((1, 1)))
    square = [
        _module(2, (1, 1), {(v, a): int(free or a == 1) for v, a, _ in steps})
        for free in (True, False)
    ]
    gens = [(0, 0), (0, 0)]
    relations = [
        [((2, 2), {1: 2}), ((0, 2), {0: 1}), ((2, 1), {0: 1, 1: 1})],
        [((2, 2), {0: 2, 1: 2}), ((0, 2), {1: 1}), ((2, 1), {1: 1})],
    ]
    cokernels = [md.present_cokernel(Presentation(2, gens, r), 3) for r in relations]
    return [line, square, cokernels]


@pytest.mark.parametrize(
    "pair", _equal_dims_pairs(), ids=["line", "square", "level-1-split"]
)
def test_a_stack_with_equal_dims_and_different_xi_splits(monkeypatch, pair):
    a, b = pair
    stack = [a, b, b, a, b]
    alone = [tor.xi(M) for M in stack]
    assert np.array_equal(a.dims, b.dims) and alone[0].tables != alone[1].tables
    checked = []
    check = tor._check
    monkeypatch.setattr(tor, "_check", lambda rs: checked.append(len(rs)) or check(rs))
    tables = tor.xi(stack)
    assert sorted(checked) == [2, 3]  # one stacked check per part
    for table, want in zip(tables, alone):
        _assert_same_table(table, want)


def _first_spot_check(xi0, xi1, q):
    """The first member classify spot-checks, drawn as classify draws."""
    families = ob.enumerate_families(xi0, xi1, q)
    rng = np.random.default_rng(7)
    first = None
    for orbit in ob.orbit_partition(families, xi0, q):
        others = [k for k in orbit.members if families[k] is not orbit.rep]
        size = min(ob.SPOT_CHECKS, len(others))
        chosen = rng.choice(others, size=size, replace=False)
        if first is None and len(chosen):
            first = int(chosen[0])
    return families[first], first


def test_a_member_with_another_xi_still_fails_the_spot_check(monkeypatch):
    # the member keeps its dims, so it joins its representative's stack, but
    # every step is zero: another xi table, which the stack must give it
    fam, k = _first_spot_check(XI0_MIXED, XI1_MIXED, 3)
    to_module = ob.family_to_module

    def patched(fams):
        out = to_module(fams)
        for b, (f, M) in enumerate(zip(fams, out)):
            if f.encode() != fam.encode():
                continue
            steps = {key: np.zeros_like(s) for key, s in M.steps.items()}
            dims = {v: M.dim(v) for v in gr.grid(M.bound)}
            out[b] = md.PersistenceModule(
                M.n, M.bound, dims, steps, M.p, coords=M.coords
            )
        return out

    monkeypatch.setattr(ob, "family_to_module", patched)
    want = "xi table varies inside one orbit (member %d)" % k
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        ob.classify(XI0_MIXED, XI1_MIXED, 3)


def test_a_corrupted_member_raises_as_it_does_alone():
    families = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    stacks = {}
    for fam in families[::4]:
        M = ob.family_to_module(fam)
        stacks.setdefault(ob._grid_key(M), []).append(M)
    first, good, last = next(ms for ms in stacks.values() if len(ms) >= 3)[:3]
    # double the first nonzero step: the squares through it stop commuting
    key = next(key for key, s in sorted(good.steps.items()) if s.any())
    steps = dict(good.steps)
    steps[key] = steps[key] * 2 % 3
    dims = {v: good.dim(v) for v in gr.grid(good.bound)}
    bad = md.PersistenceModule(
        good.n, good.bound, dims, steps, 3, check=False, coords=good.coords
    )
    with pytest.raises(InternalCheckError) as alone:
        tor.xi(bad)
    with pytest.raises(InternalCheckError) as stacked:
        tor.xi([first, bad, last])
    assert str(stacked.value) == str(alone.value)


def test_stacks_are_lists_of_one_grid():
    a, b = _equal_dims_pairs()[0]
    assert tor.xi([]) == [] and tor.minimal_resolution([]) == []
    assert tor.koszul_tor([], 0) == []
    assert len(tor.xi([a])) == 1 and tor.xi([a])[0].tables == tor.xi(a).tables
    other = _module(1, (2,), {((0,), 0): 1, ((1,), 0): 1})
    for route in (tor.xi, tor.minimal_resolution):
        with pytest.raises(ValueError, match="one grid and dims array"):
            route([a, other])
