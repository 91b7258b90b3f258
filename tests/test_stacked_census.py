"""The census resolves its modules in stacks: one tor.xi per grid and dims
array, each member's tables equal to those it gets alone."""

import re

import numpy as np
import pytest

from test_orbits import XI0_FOUR_LINES, XI0_MIXED, XI1_FOUR_LINES, XI1_MIXED
from torpers import InternalCheckError
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md
from torpers import orbits as ob
from torpers import tor
from torpers.complexes import Presentation

CENSUSES = [(XI0_MIXED, XI1_MIXED, 3), (XI0_FOUR_LINES, XI1_FOUR_LINES, 5)]


def _stack(modules, members=None):
    """Modules that share n, p, the grid and dims, as one stacked module
    (members: its input positions, by default 0, 1, ...)."""
    first = modules[0]
    steps = {key: np.array([M.steps[key] for M in modules]) for key in first.steps}
    dims = {v: first.dim(v) for v in gr.grid(first.bound)}
    members = list(range(len(modules))) if members is None else members
    return md.PersistenceModule(
        first.n, first.bound, dims, steps, first.p, False, first.coords, members
    )


def _member(stack, b):
    """Member b of a stacked module, as a module of its own."""
    steps = {key: s[b] for key, s in stack.steps.items()}
    dims = {v: stack.dim(v) for v in gr.grid(stack.bound)}
    return md.PersistenceModule(
        stack.n, stack.bound, dims, steps, stack.p, coords=stack.coords
    )


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
    assert all(stack.members is not None for stack, _ in calls)
    assert sum(stack.depth for stack, _ in calls) == {3: 72, 5: 102}[q]
    for stack, tables in calls:
        assert len(tables) == stack.depth
        for b, table in enumerate(tables):
            _assert_same_table(table, xi(_member(stack, b)))


def test_the_mixed_census_resolves_once_per_dims_signature(monkeypatch):
    depths = {"minimal_resolution": [], "koszul_tor": []}
    for name, seen in depths.items():
        route = getattr(tor, name)

        def recording(M, *args, route=route, seen=seen):
            seen.append(M.depth)
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


# Two presentations over GF(3) (found by a seeded search) whose cokernels
# share dims and xi_0 but not xi_1: the relation at (2, 2) is redundant in the
# first only, so a stack of both splits at level 1 of the resolution, not at
# its generators.
LEVEL_1_SPLIT = [
    Presentation(2, [(0, 0), (0, 0)], relations)
    for relations in (
        [((2, 2), {1: 2}), ((0, 2), {0: 1}), ((2, 1), {0: 1, 1: 1})],
        [((2, 2), {0: 2, 1: 2}), ((0, 2), {1: 1}), ((2, 1), {1: 1})],
    )
]


def _equal_dims_pairs():
    """Pairs of modules with the same dims and different xi: on a line, the
    step is the identity (one generator) or zero (two); on the square, every
    step is the identity, or the steps along axis 0 are zero; and the
    cokernels of LEVEL_1_SPLIT."""
    line = [_module(1, (1,), {((0,), 0): x}) for x in (1, 0)]
    steps = list(gr.unit_steps((1, 1)))
    square = [
        _module(2, (1, 1), {(v, a): int(free or a == 1) for v, a, _ in steps})
        for free in (True, False)
    ]
    cokernels = [md.present_cokernel(pres, 3) for pres in LEVEL_1_SPLIT]
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
    monkeypatch.setattr(
        tor, "_check", lambda rs, ks: checked.append(len(rs)) or check(rs, ks)
    )
    tables = tor.xi(_stack(stack))
    assert sorted(checked) == [2, 3]  # one stacked check per part
    for table, want in zip(tables, alone):
        _assert_same_table(table, want)


def _first_spot_check(xi0, xi1, q):
    """The first member classify spot-checks: the first member other than the
    representative of the first orbit that has one (position 0 of the fixed
    rule, t·n // size at t = 0)."""
    families = ob.enumerate_families(xi0, xi1, q)
    for orbit in ob.orbit_partition(families, xi0, q):
        others = [k for k in orbit.members if k != orbit.index]
        if others:
            return families[others[0]], others[0]


def test_a_member_with_another_xi_still_fails_the_spot_check(monkeypatch):
    # the member keeps its dims, so it stays in its representative's stack,
    # but every step is zero: another xi table, which the stack must give it
    fam, k = _first_spot_check(XI0_MIXED, XI1_MIXED, 3)
    to_module = ob.family_to_module

    def patched(fams):
        out = to_module(fams)
        for i, S in enumerate(out):
            modules = [_member(S, b) for b in range(S.depth)]
            for b, f in enumerate(S.members):
                if fams[f].encode() != fam.encode():
                    continue
                M = modules[b]
                steps = {key: np.zeros_like(s) for key, s in M.steps.items()}
                dims = {v: M.dim(v) for v in gr.grid(M.bound)}
                modules[b] = md.PersistenceModule(
                    M.n, M.bound, dims, steps, M.p, coords=M.coords
                )
            out[i] = _stack(modules, S.members)
        return out

    monkeypatch.setattr(ob, "family_to_module", patched)
    want = "xi table varies inside one orbit (member %d)" % k
    with pytest.raises(InternalCheckError, match=re.escape(want)):
        ob.classify(XI0_MIXED, XI1_MIXED, 3)


def test_a_corrupted_member_raises_as_it_does_alone():
    families = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    stacks = {}
    for fam in families[::4]:  # one census: one grid, so dims decide
        M = ob.family_to_module(fam)
        stacks.setdefault(M.dims.tobytes(), []).append(M)
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
        tor.xi(_stack([first, bad, last]))
    assert str(stacked.value) == str(alone.value)
    # the constructor's square check fires for the stack as for bad alone
    S = _stack([first, bad, last])
    with pytest.raises(InternalCheckError) as alone:
        md.PersistenceModule(good.n, good.bound, dims, steps, 3, coords=good.coords)
    with pytest.raises(InternalCheckError) as stacked:
        md.PersistenceModule(
            S.n, S.bound, dims, S.steps, 3, coords=S.coords, members=S.members
        )
    assert str(stacked.value) == str(alone.value)


def test_a_stack_checks_the_shape_of_its_steps():
    a, b = _equal_dims_pairs()[1]
    S = _stack([a, b])
    dims = {v: S.dim(v) for v in gr.grid(S.bound)}
    md.PersistenceModule(S.n, S.bound, dims, S.steps, S.p, members=S.members)
    steps = {key: s[:1] for key, s in S.steps.items()}  # one member's steps
    want = r"has shape \(1, 1, 1\), expected \(2, 1, 1\)"
    with pytest.raises(InternalCheckError, match=want):
        md.PersistenceModule(S.n, S.bound, dims, steps, S.p, members=S.members)


def test_a_widened_stack_equals_its_members_widened():
    (S,) = md.present_cokernel(LEVEL_1_SPLIT * 2, 3)  # equal dims: one stack
    for b, table in enumerate(tor.xi(S, widen=2)):
        alone = md.present_cokernel(LEVEL_1_SPLIT[b % 2], 3)
        _assert_same_table(table, tor.xi(alone, widen=2))


def test_a_stack_of_one_equals_the_module_alone():
    a, _ = _equal_dims_pairs()[0]
    tables = tor.xi(_stack([a]))
    assert len(tables) == 1
    _assert_same_table(tables[0], tor.xi(a))


def test_a_stack_takes_one_kernel_call_per_level_and_part(monkeypatch):
    # every index point of a level goes into one padded stacked_kernel_basis
    # call, once per part (one _extend call); a single module takes one
    # kernel_basis call per index point and level, and no stacked one
    calls, parts = [], []
    kernel, one, extend = la.stacked_kernel_basis, la.kernel_basis, tor._extend
    monkeypatch.setattr(
        la, "stacked_kernel_basis", lambda m, p: calls.append(len(m)) or kernel(m, p)
    )
    monkeypatch.setattr(
        la, "kernel_basis", lambda a, p: calls.append("one") or one(a, p)
    )
    monkeypatch.setattr(
        tor,
        "_extend",
        lambda rs, maps, below=(): parts.append(len(rs)) or extend(rs, maps, below),
    )
    families = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    stacks = [S for S in ob.family_to_module(families) if S.depth > 1]
    (split,) = md.present_cokernel(LEVEL_1_SPLIT * 2, 3)
    for S in stacks + [split]:
        calls.clear(), parts.clear()
        ress = tor.minimal_resolution(S)
        points = len(list(gr.grid(S.bound)))
        assert calls == [nb * points for nb in parts]
        if S is split:  # level 0 for all four, then each part of two alone
            assert parts == [4, 2, 2, 2]
        else:  # no split: one call per level
            assert all(r.gen_degrees == ress[0].gen_degrees for r in ress)
            assert parts == [S.depth] * len(ress[0].gen_degrees)
        calls.clear()
        alone = tor.minimal_resolution(_member(S, 0))
        assert calls == ["one"] * (points * len(alone.gen_degrees))
