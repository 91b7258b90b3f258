"""Cokernels are built in stacks: md.present_cokernel and ob.family_to_module
take a list of presentations (families) of one shape and return one stacked
module per dims array, and every member equals its presentation built alone,
one at a time, by the reference below."""

import numpy as np
import pytest

from test_critical_grid import _random_presentation
from test_modules import _same_arrays, basis_module
from test_orbits import XI0_FOUR_LINES, XI0_MIXED, XI1_FOUR_LINES, XI1_MIXED
from test_stacked_census import (
    LEVEL_1_SPLIT,
    _assert_same_table,
    _equal_dims_pairs,
    _stack,
)
from torpers import InternalCheckError
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md
from torpers import orbits as ob
from torpers import tor
from torpers.complexes import Presentation


def _reference_cokernel(pres, p):
    """One presentation's cokernel as it was built one at a time: the free
    module on the generators, the RREF complement of the relation space at
    each index point by elimination, and basis_module on those."""
    degrees = list(pres.gens) + [d for d, _ in pres.relations]
    coords = gr.critical_coords(degrees, pres.n)
    gens = md._present(coords, [(g,) for g in pres.gens])
    free = md._inclusion_module(pres.n, coords, gens, p)
    rel = la.zeros(len(pres.relations), len(pres.gens))
    for r, (_, coeffs) in enumerate(pres.relations):
        for k, c in coeffs.items():
            rel[r, k] = c % p
    live = md._present(coords, [(d,) for d, _ in pres.relations])
    rel_rref, bases = {}, {}
    for v in gr.grid(free.bound):
        rel_rref[v] = la.row_space(rel[live[v]][:, gens[v]], p)
        bases[v] = la.complement_basis(rel_rref[v], la.eye(len(gens[v])), p)
    mod = basis_module(free, bases, rel_rref)
    mod.gen_index = gens
    return mod


def _assert_same_module(got, want, b=None):
    """got (member b of got, for a stack) equals the module want."""
    assert (got.n, got.bound, got.p, got.coords) == (
        want.n, want.bound, want.p, want.coords
    )
    assert np.array_equal(got.dims, want.dims)
    assert (got.members is None) == (b is None)
    mine = (lambda d: d) if b is None else (lambda d: {k: a[b] for k, a in d.items()})
    assert _same_arrays(mine(got.steps), want.steps)
    assert _same_arrays(mine(got.bases), want.bases)
    assert _same_arrays(mine(got.reduce_by), want.reduce_by)
    assert got.gen_index == want.gen_index


def _members(stacks, nb):
    """(position, stack, b) for every member b of the stacks, in input order,
    asserting that the stacks hold the nb positions once each, in order
    within each stack."""
    out = sorted((k, S, b) for S in stacks for b, k in enumerate(S.members))
    assert [k for k, _, _ in out] == list(range(nb))
    assert all(S.members == sorted(S.members) and S.depth for S in stacks)
    return out


@pytest.mark.parametrize(
    "xi0, xi1, q",
    [(XI0_MIXED, XI1_MIXED, 3), (XI0_FOUR_LINES, XI1_FOUR_LINES, 5)],
    ids=["mixed-gf3", "four-lines-gf5"],
)
def test_every_census_member_equals_its_cokernel_alone(xi0, xi1, q):
    families = ob.enumerate_families(xi0, xi1, q)
    built = _members(ob.family_to_module(families), len(families))
    assert len(built) == {3: 208, 5: 1296}[q]
    for pres, (_, S, b) in zip(ob._presentations(families), built):
        _assert_same_module(S, _reference_cokernel(pres, q), b)


def _random_shape(rng, n):
    """Generator and relation degrees over n parameters, three values out of
    0..5 per axis, as a presentation with empty relations."""
    axes = [sorted(rng.choice(6, size=3, replace=False).tolist()) for _ in range(n)]

    def degree():
        return tuple(int(rng.choice(a)) for a in axes)

    gens = sorted(degree() for _ in range(int(rng.integers(1, 4))))
    return Presentation(n, gens, [(degree(), {}) for _ in range(rng.integers(0, 5))])


def _random_stack(rng, nb, p, n=2):
    """nb presentations with the generator and relation degrees of one random
    presentation (at least two relations; _random_presentation for n = 2,
    else _random_shape) and random coefficients, zero often, so ranks and
    dims differ by member."""
    shape = None
    while shape is None or len(shape.relations) < 2:
        shape = _random_presentation(rng) if n == 2 else _random_shape(rng, n)
    values = [0, 0, 1, p - 1, int(rng.integers(0, p))]
    stack = []
    for _ in range(nb):
        relations = []
        for d, _ in shape.relations:
            below = [k for k, g in enumerate(shape.gens) if gr.leq(g, d)]
            relations.append((d, {k: int(rng.choice(values)) for k in below}))
        stack.append(Presentation(shape.n, shape.gens, relations))
    return stack


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "nb", [1, la._STACK_DEPTH - 1, la._STACK_DEPTH, 50], ids=lambda nb: "B%d" % nb
)
def test_every_random_member_equals_its_cokernel_alone(seed, nb):
    p = (2, 3, 5)[seed % 3]
    stack = _random_stack(np.random.default_rng(seed), nb, p)
    stacks = md.present_cokernel(stack, p)
    built = _members(stacks, nb)
    for pres, (_, S, b) in zip(stack, built):
        _assert_same_module(S, _reference_cokernel(pres, p), b)
    if nb == 50:  # the stack splits by dims
        assert len(stacks) > 1
    one = md.present_cokernel(stack[0], p)
    assert one.members is None and one.depth == 1
    _assert_same_module(one, _reference_cokernel(stack[0], p))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [1, 3])
def test_stacks_over_one_and_three_parameters_equal_their_cokernels_alone(seed, n):
    # degrees of any shape, no generators or no relations included
    rng = np.random.default_rng(seed)
    p = (2, 3, 5, 7)[seed % 4]
    axes = [sorted(rng.choice(6, size=3, replace=False).tolist()) for _ in range(n)]

    def degree():
        return tuple(int(rng.choice(a)) for a in axes)

    gens = sorted(degree() for _ in range(seed % 4))
    degrees = [degree() for _ in range(seed % 5)]
    stack = []
    for _ in range(la._STACK_DEPTH + 1):
        relations = [
            (d, {k: int(rng.integers(0, p)) for k, g in enumerate(gens) if gr.leq(g, d)})
            for d in degrees
        ]
        stack.append(Presentation(n, gens, relations))
    built = _members(md.present_cokernel(stack, p), len(stack))
    for pres, (_, S, b) in zip(stack, built):
        _assert_same_module(S, _reference_cokernel(pres, p), b)


def _assert_members_alone(stack, p):
    """Every member of md.present_cokernel(stack, p) equals its presentation
    built alone, step for step, and so does its tor.xi table."""
    stacks = md.present_cokernel(stack, p)
    for k, S, b in _members(stacks, len(stack)):
        _assert_same_module(S, md.present_cokernel(stack[k], p), b)
    tables = {}
    for S in stacks:
        found = tor.xi(S)
        assert len(found) == S.depth
        tables.update(zip(S.members, found))
    for k, pres in enumerate(stack):
        _assert_same_table(tables[k], tor.xi(md.present_cokernel(pres, p)))
    return stacks


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "nb",
    [1, la._STACK_DEPTH - 1, la._STACK_DEPTH, la._STACK_DEPTH + 1, 50],
    ids=lambda nb: "B%d" % nb,
)
def test_a_stacked_member_equals_its_module_alone(nb, n):
    p = (2, 3, 5)[(nb + n) % 3]
    stack = _random_stack(np.random.default_rng(100 * n + nb), nb, p, n)
    _assert_members_alone(stack, p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_stack_on_a_one_point_grid_keeps_its_depth(n):
    # every degree at the origin: one index point and no unit steps, so the
    # depth is known from the members alone
    rng, p, origin = np.random.default_rng(n), 3, (0,) * n
    def relation():
        return origin, {k: int(rng.integers(0, p)) for k in range(3)}

    stack = [
        Presentation(n, [origin] * 3, [relation(), relation()])
        for _ in range(la._STACK_DEPTH + 1)
    ]
    stacks = _assert_members_alone(stack, p)
    assert all(S.bound == origin and not S.steps for S in stacks)
    assert sum(S.depth for S in stacks) == len(stack)


def test_the_equal_dims_pairs_stack_and_equal_their_modules_alone():
    a, b = LEVEL_1_SPLIT
    (stack,) = _assert_members_alone([a, b, b, a, b], 3)  # equal dims: one stack
    assert stack.members == [0, 1, 2, 3, 4]
    for a, b in _equal_dims_pairs():
        modules = [a, b, b, a, b]
        for table, M in zip(tor.xi(_stack(modules)), modules):
            _assert_same_table(table, tor.xi(M))


def test_a_stack_of_mixed_degrees_is_refused():
    gens = [(0, 0), (0, 0)]
    a = Presentation(2, gens, [((1, 0), {0: 1}), ((0, 1), {1: 1})])
    others = [
        Presentation(2, gens, [((0, 1), {1: 1}), ((1, 0), {0: 1})]),  # order
        Presentation(2, gens, [((1, 0), {0: 1})]),  # count
        Presentation(2, [(0, 0), (1, 0)], [((1, 0), {0: 1}), ((0, 1), {0: 1})]),
        Presentation(3, [(0, 0, 0)] * 2, [((1, 0, 0), {0: 1}), ((0, 1, 0), {1: 1})]),
    ]
    for b in others:
        with pytest.raises(ValueError, match="must share n, the generator"):
            md.present_cokernel([a, b], 3)
    assert md.present_cokernel([], 3) == [] and ob.family_to_module([]) == []
    families = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    lines = ob.enumerate_families(XI0_FOUR_LINES, XI1_FOUR_LINES, 3)
    other_field = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 2)
    for other in (lines[0], other_field[0]):
        with pytest.raises(ValueError, match="must share xi0, xi1 and q"):
            ob.family_to_module([families[0], other])


def _messages_alone(stack, p):
    """The message each member raises when built alone, or None."""
    out = []
    for pres in stack:
        try:
            md.present_cokernel(pres, p)
        except InternalCheckError as e:
            out.append(str(e))
        else:
            out.append(None)
    return out


def _corrupting(target, how, p):
    """stacked_reduce_mod_rows that alters the result of every member
    reduced by the relation basis target: a 1 added at its first pivot
    column (no longer closed), or the result doubled (closed, but the
    squares through the step stop commuting)."""
    reduce = la.stacked_reduce_mod_rows
    pivot = int(np.argmax(target[0] != 0))

    def corrupted(v, basis, q):
        out = reduce(v, basis, q)
        for g, rows in enumerate(basis):
            if rows.shape == target.shape and (rows == target).all():
                if how == "pivot":
                    out[g, :, pivot] = (out[g, :, pivot] + 1) % p
                else:
                    out[g] = out[g] * 2 % p
        return out

    return corrupted


@pytest.mark.parametrize("how", ["pivot", "double"])
def test_a_corrupted_member_raises_what_it_raises_alone(monkeypatch, how):
    p, found = 5, 0
    for seed in range(40):
        stack = _random_stack(np.random.default_rng(100 + seed), 10, p)
        ref = _reference_cokernel(stack[6], p)
        # the relation basis at the first point some nonzero step lands on
        w = next(
            (w for v, _, w in gr.unit_steps(ref.bound)
             if ref.dim(v) and len(ref.reduce_by[w])),
            None,
        )
        if w is None:
            continue
        monkeypatch.setattr(
            la, "stacked_reduce_mod_rows", _corrupting(ref.reduce_by[w], how, p)
        )
        alone = _messages_alone(stack, p)
        if alone[6] is not None:
            want = next(m for m in alone if m is not None)
            with pytest.raises(InternalCheckError) as stacked:
                md.present_cokernel(stack, p)
            assert str(stacked.value) == want
            kind = "not closed" if how == "pivot" else "fail to commute"
            assert kind in alone[6]
            found += 1
        monkeypatch.undo()
    assert found >= 3


def test_a_census_builds_its_cokernels_with_one_call(monkeypatch):
    calls, built = [], []
    to_module = ob.family_to_module
    init = md.PersistenceModule.__init__

    def recording(fams):
        out = to_module(fams)
        calls.append((len(fams), [M.dims.tobytes() for M in out]))
        return out

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ob, "family_to_module", recording)
    monkeypatch.setattr(md.PersistenceModule, "__init__", counting)
    ob.classify(XI0_MIXED, XI1_MIXED, 3)
    # the 13 representatives and 59 spot-check members, one stack per dims
    assert [(n, len(set(dims))) for n, dims in calls] == [(72, 3)]
    assert len(built) == 3 and sum(M.depth for M in built) == 72
    assert all(M.bases is not None for M in built)  # no free module among them
